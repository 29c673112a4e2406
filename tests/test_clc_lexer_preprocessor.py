"""Unit tests for the lexer and preprocessor of the OpenCL C frontend."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.clc.lexer import TokenKind, tokenize
from repro.clc.preprocessor import Preprocessor, preprocess, strip_comments
from repro.errors import LexerError, PreprocessorError


class TestLexer:
    def test_tokenizes_identifiers_and_keywords(self):
        tokens = tokenize("__kernel void foo(int x)")
        kinds = [t.kind for t in tokens[:-1]]
        assert kinds[0] is TokenKind.KEYWORD
        assert tokens[2].text == "foo"
        assert tokens[-1].kind is TokenKind.EOF

    def test_integer_and_float_literals(self):
        tokens = tokenize("42 0x1F 3.14f 1e-3 2u 7UL 0.5")
        kinds = [t.kind for t in tokens if t.kind is not TokenKind.EOF]
        assert kinds == [
            TokenKind.INT_LITERAL,
            TokenKind.INT_LITERAL,
            TokenKind.FLOAT_LITERAL,
            TokenKind.FLOAT_LITERAL,
            TokenKind.INT_LITERAL,
            TokenKind.INT_LITERAL,
            TokenKind.FLOAT_LITERAL,
        ]

    def test_multi_character_punctuators_maximal_munch(self):
        tokens = tokenize("a <<= b >> c != d")
        texts = [t.text for t in tokens if t.kind is TokenKind.PUNCTUATOR]
        assert "<<=" in texts and ">>" in texts and "!=" in texts

    def test_comments_are_skipped(self):
        tokens = tokenize("a /* comment */ b // trailing\n c")
        names = [t.text for t in tokens if t.kind is TokenKind.IDENTIFIER]
        assert names == ["a", "b", "c"]

    def test_string_and_char_literals(self):
        tokens = tokenize('"hello \\" world" \'x\'')
        assert tokens[0].kind is TokenKind.STRING_LITERAL
        assert tokens[1].kind is TokenKind.CHAR_LITERAL

    def test_unterminated_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("a /* never closed")

    @pytest.mark.parametrize(
        ("source", "message", "line", "column"),
        [
            ("a /* never closed", "unterminated block comment", 1, 3),
            ("int a;\n  /* x\n y", "unterminated block comment", 2, 3),
            ('x = "abc', "unterminated string literal", 1, 5),
            ('x = "abc\\', "unterminated string literal", 1, 5),
            ('"a\\\nb" "open', "unterminated string literal", 2, 4),
            ("c = 'a", "unterminated character literal", 1, 5),
            ("c = '\\'", "unterminated character literal", 1, 5),
            ("a @ b", "unexpected character '@'", 1, 3),
            ("a \\ b", "unexpected character '\\\\'", 1, 3),
            ("x\\\r\ny", "unexpected character '\\\\'", 1, 2),
            ("/* a\nb */ $", "unexpected character '$'", 2, 6),
            ("\tint\x00", "unexpected character '\\x00'", 1, 5),
            ("ok // fine\n`", "unexpected character '`'", 2, 1),
        ],
    )
    def test_error_message_line_and_column(self, source, message, line, column):
        with pytest.raises(LexerError) as raised:
            tokenize(source)
        error = raised.value
        assert (error.message, error.line, error.column) == (message, line, column)
        assert str(error) == f"{line}:{column}: {message}"

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].line == 1
        assert tokens[1].line == 2 and tokens[1].column == 3

    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                                          whitelist_characters="_ +-*/()[]{};,.<>=!&|^%~?:"),
                   max_size=200))
    @example("/*")
    @example("a /* b */ c /* d")
    def test_lexer_never_crashes_on_benign_text(self, text):
        # The only malformed input this alphabet can spell is a block
        # comment left open, which must raise the classified LexerError.
        if _opens_an_unclosed_block_comment(text):
            with pytest.raises(LexerError) as raised:
                tokenize(text)
            assert raised.value.message == "unterminated block comment"
        else:
            tokens = tokenize(text)
            assert tokens[-1].kind is TokenKind.EOF


def _opens_an_unclosed_block_comment(text: str) -> bool:
    """Whether *text*, which holds no newline or quote, has a ``/*`` with no
    later ``*/`` outside a ``//`` comment (which runs to the end of it)."""
    position = 0
    while True:
        line = text.find("//", position)
        block = text.find("/*", position)
        if block == -1 or (line != -1 and line < block):
            return False
        close = text.find("*/", block + 2)
        if close == -1:
            return True
        position = close + 2


class TestStripComments:
    def test_preserves_newlines(self):
        source = "a /* x\ny */ b"
        stripped = strip_comments(source)
        assert stripped.count("\n") == source.count("\n")

    def test_does_not_strip_inside_strings(self):
        assert '"// not a comment"' in strip_comments('x = "// not a comment";')


class TestPreprocessor:
    def test_object_macro_expansion(self):
        result = preprocess("#define N 16\nint x = N;")
        assert "int x = 16;" in result.text

    def test_function_macro_expansion(self):
        result = preprocess("#define SQ(a) ((a) * (a))\nfloat y = SQ(x + 1);")
        assert "((x + 1) * (x + 1))" in result.text

    def test_nested_macro_expansion(self):
        result = preprocess("#define A 2\n#define B (A + 1)\nint v = B;")
        assert "((2) + 1)" in result.text.replace("( ", "(") or "(2 + 1)" in result.text

    def test_undef_removes_macro(self):
        result = preprocess("#define N 4\n#undef N\nint x = N;")
        assert "int x = N;" in result.text

    def test_ifdef_else_endif(self):
        source = "#define GPU 1\n#ifdef GPU\nint a;\n#else\nint b;\n#endif"
        result = preprocess(source)
        assert "int a;" in result.text and "int b;" not in result.text

    def test_ifndef(self):
        result = preprocess("#ifndef MISSING\nint ok;\n#endif")
        assert "int ok;" in result.text

    def test_if_with_defined_and_arithmetic(self):
        source = "#define V 3\n#if defined(V) && V > 2\nint yes;\n#endif"
        assert "int yes;" in preprocess(source).text

    def test_elif_branches(self):
        source = "#define MODE 2\n#if MODE == 1\nint a;\n#elif MODE == 2\nint b;\n#else\nint c;\n#endif"
        result = preprocess(source)
        assert "int b;" in result.text
        assert "int a;" not in result.text and "int c;" not in result.text

    def test_include_resolution_and_tracking(self):
        headers = {"defs.h": "#define WIDTH 128\n"}
        result = preprocess('#include "defs.h"\nint w = WIDTH;', include_resolver=headers.get)
        assert "int w = 128;" in result.text
        assert "defs.h" in result.included_headers

    def test_unresolved_include_is_recorded_not_fatal(self):
        result = preprocess('#include "missing.h"\nint x;')
        assert result.unresolved_headers == ["missing.h"]
        assert "int x;" in result.text

    def test_error_directive_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#error unsupported platform")

    def test_pragma_is_ignored(self):
        result = preprocess("#pragma OPENCL EXTENSION cl_khr_fp64 : enable\nint x;")
        assert "int x;" in result.text
        assert "#pragma" not in result.text

    def test_unterminated_conditional_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#ifdef X\nint a;")

    def test_line_continuation_in_macro(self):
        source = "#define LONG(a) \\\n ((a) + 1)\nint x = LONG(2);"
        assert "((2) + 1)" in preprocess(source).text

    def test_predefined_macros(self):
        pre = Preprocessor(predefined={"WG_SIZE": "64"})
        assert "int x = 64;" in pre.preprocess("int x = WG_SIZE;").text

    def test_variadic_macro(self):
        source = "#define CALL(f, ...) f(__VA_ARGS__)\nCALL(foo, 1, 2);"
        assert "foo(1, 2);" in preprocess(source).text
