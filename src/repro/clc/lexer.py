"""Tokenizer for the OpenCL C subset understood by this reproduction.

The lexer is deliberately permissive: it recognises the full C operator set,
integer/floating literals with OpenCL suffixes, character and string
literals, identifiers and keywords.  Anything else raises :class:`LexerError`
with a line/column so the rejection filter can report *why* a GitHub content
file failed to compile.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from enum import Enum, auto

from repro.errors import LexerError


class TokenKind(Enum):
    """Lexical category of a token."""

    IDENTIFIER = auto()
    KEYWORD = auto()
    INT_LITERAL = auto()
    FLOAT_LITERAL = auto()
    CHAR_LITERAL = auto()
    STRING_LITERAL = auto()
    PUNCTUATOR = auto()
    EOF = auto()


@dataclass(frozen=True, slots=True)
class Token:
    """A single lexical token.

    Attributes:
        kind: The lexical category.
        text: The exact source text of the token.
        line: 1-based source line.
        column: 1-based source column.
    """

    kind: TokenKind
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"


#: Keywords of the OpenCL C language subset (C99 keywords plus OpenCL
#: qualifiers).  Type names are handled by the parser via the type table so
#: that typedefs behave uniformly.
KEYWORDS = frozenset(
    {
        "if",
        "else",
        "for",
        "while",
        "do",
        "return",
        "break",
        "continue",
        "switch",
        "case",
        "default",
        "goto",
        "sizeof",
        "struct",
        "union",
        "enum",
        "typedef",
        "const",
        "volatile",
        "restrict",
        "static",
        "inline",
        "extern",
        "register",
        "signed",
        "unsigned",
        "void",
        # OpenCL address space / access qualifiers.
        "__kernel",
        "kernel",
        "__global",
        "global",
        "__local",
        "local",
        "__constant",
        "constant",
        "__private",
        "private",
        "__read_only",
        "read_only",
        "__write_only",
        "write_only",
        "__read_write",
        "read_write",
        "__attribute__",
    }
)

#: Punctuators; :data:`_MASTER_RE` tries them longest first (maximal munch).
_PUNCTUATORS = (
    "<<=",
    ">>=",
    "...",
    "->",
    "++",
    "--",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    ".",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "&",
    "|",
    "^",
    "~",
    "?",
    ":",
)

#: One alternation covering every token class, in precedence order:
#: whitespace/comment runs, identifiers (any non-ASCII character counts as
#: an identifier character: the lexer is permissive and later stages reject
#: what is not real OpenCL), numbers (triggered by a digit or a dot-digit),
#: string and character literals, then punctuators (longest first, so
#: maximal munch is preserved; a stray ``#`` surviving preprocessing lexes
#: as a punctuator too).  The ``bad`` group catches an unterminated block
#: comment opener, which would otherwise mis-lex as ``/`` ``*``.
_MASTER_RE = re.compile(
    r"(?P<ws>(?:[ \t\r\n\f\v]+|//[^\n]*|/\*[\s\S]*?\*/|\\\n)+)"
    r"|(?P<id>(?:[A-Za-z_]|[^\x00-\x7f])(?:[A-Za-z0-9_]|[^\x00-\x7f])*)"
    r"|(?P<num>(?=[0-9]|\.[0-9])"
    r"(?:0[xX][0-9a-fA-F]*[uUlLfFhH]*|[0-9]*(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?[uUlLfFhH]*))"
    r'|(?P<str>"(?:\\[\s\S]|[^"\\])*")'
    r"|(?P<char>'(?:\\[\s\S]|[^'\\])*')"
    r"|(?P<bad>/\*)"
    r"|(?P<punct>#|"
    + "|".join(re.escape(p) for p in sorted(_PUNCTUATORS, key=len, reverse=True))
    + r")"
)


def _classify_number(text: str) -> TokenKind:
    """INT vs FLOAT literal: a fraction, an exponent or an f/h suffix."""
    if text[:2] in ("0x", "0X"):
        # The hex-digit run greedily claims f/F, so only suffix characters
        # that cannot be hex digits (after a u/U/l/L) remain in the tail —
        # an h/H or trailing f/F there marks a float.
        tail = text[2:].lstrip("0123456789abcdefABCDEF")
        is_float = any(c in "fFhH" for c in tail)
    else:
        body = text.rstrip("uUlLfFhH")
        suffixes = text[len(body):]
        is_float = (
            "." in body
            or "e" in body
            or "E" in body
            or any(c in "fFhH" for c in suffixes)
        )
    return TokenKind.FLOAT_LITERAL if is_float else TokenKind.INT_LITERAL


def _error_message(source: str, pos: int, group: str | None) -> str:
    """The :class:`LexerError` message for a failed match at *pos*.

    Whitespace, comments, identifiers, numbers and punctuators always match,
    so a failure is an unterminated block comment (the ``bad`` group), an
    unterminated string or character literal (its opening quote starts no
    complete literal), or a character no token can start with.
    """
    if group == "bad":
        return "unterminated block comment"
    character = source[pos]
    if character == '"':
        return "unterminated string literal"
    if character == "'":
        return "unterminated character literal"
    return f"unexpected character {character!r}"


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*, returning a list of tokens ending with EOF.

    Drives :data:`_MASTER_RE` down the source: one regex match and one
    :class:`Token` per token.  Where the pattern fails to match (or matches
    the ``bad`` group), raises :class:`LexerError` at that position.
    """
    length = len(source)
    tokens: list[Token] = []
    append = tokens.append
    master = _MASTER_RE.match
    pos = 0
    line = 1
    line_start = 0  # index just past the most recent newline
    while pos < length:
        match = master(source, pos)
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
            # Interning collapses the many repeats of each identifier or
            # keyword across a corpus into one string object, cutting
            # parse-time memory and making dict lookups keyed on token
            # text pointer-comparison fast.
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
        append(Token(kind, text, token_line, column))
        pos = end
    append(Token(TokenKind.EOF, "", line, length - line_start + 1))
    return tokens
