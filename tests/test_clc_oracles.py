"""The ``clc`` frontend's fast paths against the loops they replaced.

The lexer takes lines and columns from one list of newline offsets, the
expression parser climbs precedence over one operator table, and the
preprocessor strips comments with one regex substitution and returns a line
that names no macro without scanning it.  The straightforward versions they
replaced are kept below as reference oracles, and each property test holds
the current code to them on generated inputs: equal tokens, trees and texts,
or equal errors (class, message, line and column).
"""

from __future__ import annotations

import sys

from hypothesis import example, given, settings, strategies as st

from repro.clc import ast_nodes as ast
from repro.clc.lexer import (
    _MASTER_RE,
    KEYWORDS,
    Token,
    TokenKind,
    _classify_number,
    _error_message,
    tokenize,
)
from repro.clc.parser import _BINARY_LEVELS, Parser
from repro.clc.preprocessor import MacroDefinition, Preprocessor, strip_comments
from repro.errors import CompileError, LexerError

# ----------------------------------------------------------------------
# Reference implementations.
# ----------------------------------------------------------------------


def oracle_tokenize(source: str) -> list[Token]:
    """One ``_MASTER_RE.match`` per token, counting the newlines of every
    whitespace run and literal to keep the line and its start offset."""
    length = len(source)
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0  # index just past the most recent newline
    while pos < length:
        match = _MASTER_RE.match(source, pos)
        group = match.lastgroup if match else None
        if group is None or group == "bad":
            raise LexerError(_error_message(source, pos, group), line, pos - line_start + 1)
        text = match.group()
        end = match.end()
        if group == "ws":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + text.rfind("\n") + 1
            pos = end
            continue
        token_line = line
        column = pos - line_start + 1
        if group == "id":
            text = sys.intern(text)
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
        elif group == "punct":
            kind = TokenKind.PUNCTUATOR
        elif group == "num":
            kind = _classify_number(text)
        else:  # str / char — literals may span lines via escaped newlines
            kind = TokenKind.STRING_LITERAL if group == "str" else TokenKind.CHAR_LITERAL
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + text.rfind("\n") + 1
        tokens.append(Token(kind, text, token_line, column))
        pos = end
    tokens.append(Token(TokenKind.EOF, "", line, length - line_start + 1))
    return tokens


def oracle_strip_comments(source: str) -> str:
    """A character loop: drop line comments, turn each block comment into its
    newlines plus one space, and copy string literals verbatim."""
    out: list[str] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and source[i] != "\n":
                i += 1
        elif ch == "/" and nxt == "*":
            i += 2
            while i < n and not (source[i] == "*" and i + 1 < n and source[i + 1] == "/"):
                if source[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
            out.append(" ")
        elif ch == '"':
            out.append(ch)
            i += 1
            while i < n and source[i] != '"':
                if source[i] == "\\":
                    out.append(source[i : i + 2])
                    i += 2
                    continue
                out.append(source[i])
                i += 1
            if i < n:
                out.append('"')
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class LevelParser(Parser):
    """The parser descending through every level of ``_BINARY_LEVELS`` for
    every operand, each level left-associative."""

    def _parse_binary(self, level: int) -> ast.Expression:
        if level >= len(_BINARY_LEVELS):
            return self._parse_unary()
        operators = _BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        while self._peek().text in operators and self._peek().kind is TokenKind.PUNCTUATOR:
            op_token = self._advance()
            right = self._parse_binary(level + 1)
            left = ast.BinaryOp(
                op=op_token.text, left=left, right=right, line=op_token.line, column=op_token.column
            )
        return left


def oracle_expand_line(preprocessor: Preprocessor, line: str) -> str:
    """``_expand_once`` repeated until the text stops changing."""
    text = line
    for _ in range(preprocessor._max_expansion_passes):
        expanded = preprocessor._expand_once(text)
        if expanded == text:
            break
        text = expanded
    return text


def _outcome(function, *args):
    """What *function* returns, or the class, message, line and column of
    the :class:`CompileError` it raises."""
    try:
        return function(*args)
    except CompileError as error:
        return (type(error).__name__, error.message, error.line, error.column)


# ----------------------------------------------------------------------
# Lexer and comment stripping.
# ----------------------------------------------------------------------

#: Weighted toward what lexes differently: comment and literal delimiters,
#: escapes and newlines (and the carriage return, which is not one), digits
#: and number suffixes, punctuators, and non-ASCII or stray characters.
_LEX_FRAGMENTS = (
    list("/*\"'\\\n") * 4
    + ["/*", "*/", "//", "\\\n", "\r\n", "\r"]
    + list("0123456789")
    + ["0x", "1e", ".5", "e-"]
    + list("+-<>=!&|^%~?:;,.(){}[]#")
    + ["<<=", "...", "->"]
    + list("aAfFuUlLhHxX_")
    + ["int", "while", "__kernel"]
    + [" ", "  ", "\t", "\f", "\v"]
    + ["é", "λ", "€", "\u00a0", "\x00", "@", "$", "`"]
)
_LEX_TEXTS = st.lists(st.sampled_from(_LEX_FRAGMENTS), max_size=60).map("".join)


class TestLexerOracle:
    @settings(max_examples=400)
    @given(_LEX_TEXTS)
    @example('a\r\nb "x\\\r\ny" /* \r */ c\rd')
    @example('int /* a\nb */ x = "s\\\nt";\n  \'\\n\' /* open')
    @example('x = "abc\n\'')
    def test_tokens_and_errors_match(self, text):
        assert _outcome(tokenize, text) == _outcome(oracle_tokenize, text)


class TestStripCommentsOracle:
    @settings(max_examples=400)
    @given(_LEX_TEXTS)
    @example("a /* open\n")
    @example('"/* in a string */" // tail\n/* x\ny */z "\\')
    @example("/*/ x */ '\"' /* y")
    def test_matches_the_character_loop(self, text):
        assert strip_comments(text) == oracle_strip_comments(text)


# ----------------------------------------------------------------------
# Expression parsing.
# ----------------------------------------------------------------------

_BINARY_OPERATORS = [operator for operators in _BINARY_LEVELS for operator in operators]
_ATOMS = st.sampled_from(
    [
        ["a"],
        ["n"],
        ["0"],
        ["7u"],
        ["2.5f"],
        ["0x1F"],
        ["'c'"],
        ['"s"'],
        ["f", "(", ")"],
        ["s", ".", "x"],
        ["p", "->", "y"],
        ["i", "++"],
        ["sizeof", "(", "int", ")"],
        ["sizeof", "a"],
    ]
)
_PREFIXES = ["-", "+", "!", "~", "*", "&", "++", "--"]
_CASTS = [
    ["(", "int", ")"],
    ["(", "float", "*", ")"],
    ["(", "const", "uint", ")"],
    ["(", "__global", "int", "*", ")"],
    ["(", "float2", ")"],  # before "(", a vector literal
]
_ASSIGNMENT_OPERATORS = ["=", "+=", "<<=", "|="]


def _call(arguments: list[list[str]]) -> list[str]:
    tokens = ["g", "("]
    for index, argument in enumerate(arguments):
        if index:
            tokens.append(",")
        tokens += argument
    return tokens + [")"]


def _same_level_chain(inner: st.SearchStrategy[list[str]]) -> st.SearchStrategy[list[str]]:
    """Three to five operands joined by operators of one precedence level,
    which the parser must fold to the left."""
    tails = st.sampled_from(_BINARY_LEVELS).flatmap(
        lambda operators: st.lists(
            st.tuples(st.sampled_from(operators), inner), min_size=2, max_size=4
        )
    )
    return st.tuples(inner, tails).map(
        lambda parts: parts[0] + [token for pair in parts[1] for token in [pair[0], *pair[1]]]
    )


#: Token lists of expressions over every binary level plus unary, cast,
#: ternary, assignment, comma, parentheses, subscripts and calls.
_EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(_BINARY_OPERATORS), inner).map(
            lambda parts: parts[0] + [parts[1]] + parts[2]
        ),
        _same_level_chain(inner),
        st.tuples(st.sampled_from(_PREFIXES), inner).map(lambda parts: [parts[0]] + parts[1]),
        st.tuples(st.sampled_from(_CASTS), inner).map(lambda parts: parts[0] + parts[1]),
        st.tuples(inner, inner, inner).map(
            lambda parts: parts[0] + ["?"] + parts[1] + [":"] + parts[2]
        ),
        st.tuples(inner, st.sampled_from(_ASSIGNMENT_OPERATORS), inner).map(
            lambda parts: parts[0] + [parts[1]] + parts[2]
        ),
        st.tuples(inner, inner).map(lambda parts: parts[0] + [","] + parts[1]),
        inner.map(lambda tokens: ["("] + tokens + [")"]),
        st.tuples(inner, inner).map(lambda parts: ["("] + parts[0] + [")", "["] + parts[1] + ["]"]),
        st.lists(inner, max_size=3).map(_call),
    ),
    max_leaves=16,
)
_SEPARATORS = st.sampled_from([" ", "  ", "\n", "\n\t", " \n "])


@st.composite
def _function_texts(draw) -> str:
    """A function whose body is one generated expression statement, its
    tokens separated by spaces and newlines so lines and columns vary."""
    tokens = draw(_EXPRESSIONS)
    separators = draw(st.lists(_SEPARATORS, min_size=len(tokens), max_size=len(tokens)))
    expression = "".join(separator + token for separator, token in zip(separators, tokens))
    return "void f(void) {" + expression + " ;\n}\n"


def _parse(parser_class: type[Parser], text: str) -> ast.TranslationUnit:
    return parser_class(tokenize(text)).parse_translation_unit()


class TestParserOracle:
    @settings(max_examples=300, deadline=None)
    @given(_function_texts(), st.integers(min_value=0))
    @example("void f(void) { a - b - c * d / e % g << 1 < 2 == 3 & 4 ^ 5 | 6 && 7 || 8 ;\n}\n", 0)
    @example("void f(void) { a || b && c | d ^ e & f == g < h << i + j * k ;\n}\n", 0)
    @example("void f(void) { x = a ? b , c : d += (float2)(e, f)[g] ;\n}\n", 40)
    def test_trees_and_errors_match(self, text, cut):
        assert _outcome(_parse, Parser, text) == _outcome(_parse, LevelParser, text)
        truncated = text[: cut % (len(text) + 1)]
        assert _outcome(_parse, Parser, truncated) == _outcome(_parse, LevelParser, truncated)


# ----------------------------------------------------------------------
# Macro expansion.
# ----------------------------------------------------------------------

#: Line fragments that spell a macro name only inside a string literal
#: (closed, escaped or left open), inside a longer identifier, or after a
#: digit, plus neutral text.
_MACRO_FRAGMENTS = [
    '"M"',
    '"a F(1) b"',
    '"\\"N2\\""',
    '"M',
    "xM",
    "M_",
    "FM",
    "M2",
    "_F",
    "1M",
    "0xF",
    "2F(3)",
    "3.0F",
    " ",
    "(",
    ")",
    ",",
    "+",
    "y",
    "'\"'",
    "\\",
]


def _macro_preprocessor() -> Preprocessor:
    return Preprocessor(
        macro_table={
            "M": MacroDefinition("M", "(N2 + 1)"),
            "N2": MacroDefinition("N2", '"M" 2'),
            "F": MacroDefinition("F", "x * M", ["x"]),
        }
    )


class TestExpandLineOracle:
    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(_MACRO_FRAGMENTS), max_size=12).map("".join))
    @example('x = "M" + xM + 1M + F(2) + "F(')
    @example("M_ + 2F(3) + \"N2")
    def test_matches_the_expand_once_fixpoint(self, line):
        preprocessor = _macro_preprocessor()
        expected = _outcome(oracle_expand_line, preprocessor, line)
        assert _outcome(preprocessor._expand_line, line) == expected
