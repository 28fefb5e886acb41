"""The frontend against its character-loop reference, and pinned node ids.

``reference_frontend`` holds the lexer and parser the one-pass frontend
replaced. On random texts the two lexers must give the same tokens or
the same illegal character, and on random token sequences the two
parsers the same graph, node ids included, or the same ParseError.
"""

import pathlib
import re
import sys
import traceback

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_frontend as reference
from wordtree.frontend import (
    PUNCT_CHARS,
    IllegalCharacter,
    ParseError,
    lex,
    parse_text,
    render_program,
    to_canonical,
)
from wordtree.graph import WORD, export_json
from wordtree.pipeline import check_program

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

# Whitespace as ``str.isspace`` and the pattern ``\s`` agree on it: the
# no-break space, the line separator, the information separators, NEL
# and the ideographic space count.
WHITESPACE = " \t\r\x0b\x0c\xa0\u2028\n\x1c\x1d\x1e\x1f\x85\u3000"
PUNCT = list(";{}.:,'")
KEYWORDS = ["tape-alphabet", "is", "go", "to", "print", "if", "the-tape-symbol",
            "then", "move", "left", "right", "one-square"]
IDENTIFIERS = ["a", "b", "xy", "a-b"]

# The lexer's reference pattern for one token: a punctuation mark or a
# maximal word; or else any character but whitespace, which is illegal,
# as a token of its own.
TOKEN = re.compile(r"[;{}.:,']|" + WORD.pattern + r"|\S")


def lexed(lex_text, text):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in lex_text(text)]
    except IllegalCharacter as error:
        return ("illegal", error.char, error.line, error.column, str(error))


def parsed(parse, text):
    try:
        return export_json(parse(text).graph)
    except ParseError as error:
        return ("ParseError", str(error))


source_texts = st.lists(
    st.one_of(
        st.sampled_from(KEYWORDS + IDENTIFIERS + PUNCT),
        st.text(alphabet="abcz-;{}.:,'" + WHITESPACE + "A7\x00", max_size=6),
        st.text(alphabet="-", min_size=1, max_size=3),
    ),
    max_size=20,
).map("".join)


@given(source_texts)
@settings(deadline=None)
@example("Go")
@example("a--b")
@example("-x")
@example("go to\n  carry;\r\n  x-\n")
@example("a  \n\x0c\n  7")
@example("a-")
@example("-a")
@example("go to x;  \t\n\x85 \u3000\n  $")
@example("print\x1c'a'\x1f\x00")
@example("go to go;\n go")
def test_lex_matches_reference(text):
    assert lexed(lex, text) == lexed(reference.lex, text)


@given(source_texts)
@settings(deadline=None, max_examples=50)
def test_tokens_behave_as_a_sequence(text):
    try:
        expected = reference.lex(text)
    except IllegalCharacter:
        return
    tokens = lex(text)
    assert len(tokens) == len(expected)
    assert list(tokens) == expected
    if expected:
        assert tokens[-1] == expected[-1]
    with pytest.raises(IndexError):
        tokens[len(expected)]


def pattern_route(text):
    """What the pattern ``TOKEN`` finds: its tokens, or where the first illegal one is.

    The first one-character token that is neither a mark nor a letter is
    the illegal character; its line and column are counted here from the
    text itself, as ``("illegal", char, line, column)``.
    """
    for match in TOKEN.finditer(text):
        token = match.group()
        if len(token) == 1 and not (token in PUNCT_CHARS or "a" <= token <= "z"):
            offset = match.start()
            line = text.count("\n", 0, offset) + 1
            return ("illegal", token, line, offset - text.rfind("\n", 0, offset))
    return TOKEN.findall(text)


def lexed_texts(text):
    """``lex``'s token texts, or its refusal in ``pattern_route``'s form."""
    try:
        return lex(text).texts
    except IllegalCharacter as error:
        return ("illegal", error.char, error.line, error.column)


# Characters of every sort the two string passes and the pattern must
# agree on: letters, hyphens, the marks, ASCII and Unicode whitespace,
# digits, uppercase letters and letters beyond ASCII.
LEX_CHARS = "abz-" + PUNCT_CHARS + " \t\n\r\x0b\x0c\x1c\xa0\u2028" + "07AZ\u00e9\u03bb"
lex_texts = st.lists(
    st.one_of(
        st.sampled_from(KEYWORDS + IDENTIFIERS + PUNCT + [" ", "\n", "\x1c", "\xa0", "\u2028"]),
        st.text(alphabet=LEX_CHARS, max_size=4),
    ),
    max_size=24,
).map("".join)


@given(lex_texts)
@settings(deadline=None, max_examples=300)
@example("go to x;\u2028print 'a'\x1c.")
@example("a\xa0b-c\x1c{d}")
@example("a-\u00e9")
@example("\u03bb")
@example("a\n  b7")
@example("x--y")
@example("a b-\u00e9")
@example("aa aa;-")
def test_two_string_passes_lex_as_the_pattern_does(text):
    """A legal text's tokens are the pattern's, and ``starts`` lines up with them;
    an illegal text is refused at the pattern's first illegal character."""
    expected = pattern_route(text)
    assert lexed_texts(text) == expected
    if type(expected) is list:
        tokens = lex(text)
        assert len(tokens.starts) == len(expected)
        assert [text[at:at + len(t)] for at, t in zip(tokens.starts, tokens.texts)] == expected
        ends = [at + len(t) for at, t in zip(tokens.starts, tokens.texts)]
        gaps = [text[end:at] for end, at in zip([0] + ends, tokens.starts + [len(text)])]
        assert not "".join(gaps).strip()  # only whitespace lies between two tokens


def test_every_code_point_between_letters_lexes_as_the_pattern_does():
    """``"a" + chr(c) + "b"``, for every code point c: ``lex`` gives the
    pattern's tokens, or refuses the pattern's first illegal character
    at its line and column."""
    for first in range(0, 0x110000, 0x10000):
        texts = ["a" + chr(c) + "b" for c in range(first, first + 0x10000)]
        got, want = list(map(lexed_texts, texts)), list(map(pattern_route, texts))
        if got != want:
            i = next(i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1])
            pytest.fail(f"U+{first + i:04X}: lex gives {got[i]}, the pattern {want[i]}")


@st.composite
def statements(draw, depth=0):
    """Token texts of one statement, labels included."""
    out = []
    for _ in range(draw(st.integers(0, 2))):
        out += [draw(st.sampled_from(IDENTIFIERS)), ":"]
    kinds = ["go", "print", "move", "empty"] + (["if", "{"] if depth < 3 else [])
    kind = draw(st.sampled_from(kinds))
    word = st.sampled_from(IDENTIFIERS)
    if kind == "go":
        out += ["go", "to", draw(word)]
    elif kind == "print":
        out += ["print", "'", draw(word), "'"]
    elif kind == "move":
        out += ["move", draw(st.sampled_from(["left", "right"])), "one-square"]
    elif kind == "if":
        out += ["if", "the-tape-symbol", "is", "'", draw(word), "'", "then"]
        out += draw(statements(depth + 1))
    elif kind == "{":
        out += ["{"] + draw(statement_lists(depth + 1)) + ["}"]
    return out


@st.composite
def statement_lists(draw, depth=0):
    out = draw(statements(depth))
    for _ in range(draw(st.integers(0, 3))):
        out += [";"] + draw(statements(depth))
    return out


@st.composite
def programs(draw):
    """Token texts of a program, then perhaps cut short, or with one token changed."""
    words = [draw(st.sampled_from(IDENTIFIERS)) for _ in range(draw(st.integers(1, 3)))]
    declared = [w for pair in zip([","] * len(words), words) for w in pair][1:]
    tokens = ["tape-alphabet", "is", *declared, ";", *draw(statement_lists()), "."]
    change = draw(st.sampled_from(["none", "cut", "replace", "insert", "delete"]))
    any_token = st.sampled_from(KEYWORDS + IDENTIFIERS + PUNCT)
    at = draw(st.integers(0, len(tokens) - 1))
    if change == "cut":
        tokens = tokens[:at]
    elif change == "replace":
        tokens[at] = draw(any_token)
    elif change == "insert":
        tokens.insert(at, draw(any_token))
    elif change == "delete":
        del tokens[at]
    gaps = draw(st.lists(st.sampled_from([" ", "\n", "  "]), min_size=len(tokens),
                         max_size=len(tokens)))
    return "".join(gap + token for gap, token in zip(gaps, tokens))


token_soups = st.lists(st.sampled_from(KEYWORDS + IDENTIFIERS + PUNCT), max_size=25).map(" ".join)


@given(st.one_of(programs(), token_soups))
@settings(deadline=None)
@example("tape-alphabet is a;")
@example("tape-alphabet is a; x")
@example("tape-alphabet is a; x:")
@example("tape-alphabet is a; move")
@example("tape-alphabet is a; ;: print 'a'.")
@example("tape-alphabet is a; {: go to a}.")
@example("tape-alphabet is a; go to x.")
@example("tape-alphabet")
@example("")
def test_parse_matches_reference(text):
    assert parsed(parse_text, text) == parsed(reference.parse_text, text)


def test_parse_error_on_line_two_thousand():
    """A long text that lexes cleanly has its ParseError placed as the reference places it."""
    text = "tape-alphabet is a;\n" + "print 'a';\n" * 1998 + "  go   carry.\n"
    with pytest.raises(ParseError) as refusal:
        parse_text(text)
    token = refusal.value.token
    expected = reference.lex(text)[-2]
    assert (token.text, token.line, token.column) == (expected.text, expected.line, expected.column)
    assert (token.line, token.column) == (2000, 8)
    assert parsed(parse_text, text) == parsed(reference.parse_text, text)


def test_end_of_program_after_the_last_statement():
    with pytest.raises(ParseError, match='expected ".", found end of program'):
        parse_text("tape-alphabet is a;")


@pytest.mark.parametrize("path", sorted((ROOT / "programs").glob("*.tgl")), ids=lambda p: p.name)
def test_program_node_ids_are_pinned(path):
    """Node and arrow ids of each shipped program, as the parser hands them out."""
    golden = (DATA / f"{path.stem}.sytr.json").read_text()
    assert export_json(parse_text(path.read_text()).graph) == golden


IF = "if the-tape-symbol is 'a' then "
NESTED = {
    "block": lambda n, leaf: "{" * n + leaf + "}" * n,
    "if": lambda n, leaf: IF * n + leaf,
}
LEAVES = ["print 'a'", "x: y: go to x", "go x", "move up one-square", "print 'a-b'", "if a", "go to ;"]


def outcome(parse, text):
    try:
        return parsed(parse, text)
    except RecursionError:
        return "RecursionError"


def at_depth(frames, call):
    return at_depth(frames - 1, call) if frames else call()


def test_parser_needs_no_more_stack_than_reference():
    """Near the recursion limit, whatever the reference parses, the frontend parses alike.

    The limit is lowered so that programs nest only a few dozen levels.
    For each shape and each of three call depths, which cover every
    phase of the three frames a block level takes, the two deepest
    nestings the reference still parses must give the same result.
    """
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 200)
    try:
        for nest in NESTED.values():
            for leaf in LEAVES:
                for frames in range(3):
                    def run(parse, n):
                        text = f"tape-alphabet is a;\n{nest(n, leaf)}."
                        return at_depth(frames, lambda: outcome(parse, text))

                    low, high = 1, 200  # the reference parses ``low`` levels, not ``high``
                    assert run(reference.parse_text, high) == "RecursionError"
                    while high - low > 1:
                        middle = (low + high) // 2
                        if run(reference.parse_text, middle) == "RecursionError":
                            high = middle
                        else:
                            low = middle
                    for n in (low - 1, low):
                        assert run(parse_text, n) == run(reference.parse_text, n)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_ten_thousand_levels_check_render_and_round_trip(shape):
    """Nesting costs no stack: 10 000 levels parse, check, render and round-trip."""
    text = "tape-alphabet is a;\n" + NESTED[shape](10_000, "print 'a'") + "."
    result = check_program(text)
    assert result.diagnostics == [] and result.runnable
    tree = parse_text(text)
    assert render_program(tree) == text
    assert export_json(parse_text(render_program(tree)).graph) == export_json(tree.graph)
    assert render_program(to_canonical(tree)) == text


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_deep_nesting_parses_alike_ids_and_errors(shape):
    """Past any recursion limit the parser still hands out the reference's ids and errors.

    The reference is run on a raised limit; the frontend on the default one.
    """
    texts = [f"tape-alphabet is a;\n{NESTED[shape](2_000, leaf)}." for leaf in LEAVES]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        expected = [parsed(reference.parse_text, text) for text in texts]
    finally:
        sys.setrecursionlimit(limit)
    assert [parsed(parse_text, text) for text in texts] == expected


HEAD = ["tape-alphabet", "is", "a", ",", "b", ";"]
SHAPES = {
    "go": ["go", "to", "a"],
    "print": ["print", "'", "a", "'"],
    "move": ["move", "left", "one-square"],
    "if": ["if", "the-tape-symbol", "is", "'", "a", "'", "then", "move", "right", "one-square"],
    "labelled": ["x", ":", "y", ":", "print", "'", "b", "'"],
    "block": ["{", "go", "to", "a", ";", "x", ":", "{", "}", "}"],
}
END = None  # the program ends at the slot


def test_every_slot_of_every_shape_refuses_as_the_reference_does():
    """Each slot of a program holding one statement shape, filled with each token or cut short.

    The statement is followed by a second one, so a slot after it is
    still in a list. Every slot, the program's head and end included,
    takes the end of the program, each keyword, each punctuation mark,
    a plain identifier and a hyphenated one, and the two parsers must
    agree on the graph or the ParseError.
    """
    refusals = set()
    for shape in SHAPES.values():
        program = HEAD + shape + [";", "go", "to", "b", "."]
        for slot in range(len(program) + 1):
            for filler in [END, *KEYWORDS, *PUNCT, "a", "a-b"]:
                tokens = program[:slot]
                if filler is not END:
                    tokens += [filler] + program[slot + 1:]
                text = " ".join(tokens)
                expected = parsed(reference.parse_text, text)
                assert parsed(parse_text, text) == expected, text
                if expected[0] == "ParseError":
                    refusals.add(expected[1].split(", found")[0])
    assert refusals == {
        'expected "tape-alphabet"', "expected 'is'", "expected 'to'", "expected 'then'",
        'expected "the-tape-symbol"', 'expected "one-square"', "expected 'left' or 'right'",
        "expected an identifier", "expected an identifier without hyphens",
        'expected "\'"', 'expected ";"', 'expected "}"', 'expected "."', "expected end of program",
    }
