"""A small C preprocessor for OpenCL content files.

The paper's toolchain relies on the Clang preprocessor; here we implement the
subset needed to process real-world OpenCL device code:

* comment stripping,
* ``#include`` resolution through a caller-supplied header resolver
  (used both by the rejection filter's shim header and by the corpus
  miner's recursive header inliner),
* object-like and function-like ``#define`` macros and ``#undef``,
* conditional compilation (``#if``/``#ifdef``/``#ifndef``/``#elif``/
  ``#else``/``#endif``) with ``defined()`` and integer expressions,
* ``#pragma`` (ignored) and ``#error`` (raises).

The output is plain OpenCL C text suitable for the lexer/parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import PreprocessorError

#: Signature of an include resolver: maps a header name (as written between
#: quotes or angle brackets) to its text, or returns ``None`` when unknown.
IncludeResolver = Callable[[str], "str | None"]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: Expansion scanner: a string literal (escapes included, closing quote
#: optional so an unterminated literal still consumes to end of line) or an
#: identifier.  Text between matches cannot start a string or a macro name.
_EXPAND_SCAN_RE = re.compile(r'"(?:\\[\s\S]|[^"\\])*"?|[A-Za-z_][A-Za-z0-9_]*')
_DEFINED_CALL_RE = re.compile(r"defined\s*(?:\(\s*(\w+)\s*\)|(\w+))")
#: What :func:`strip_comments` rewrites: a line comment, a block comment
#: (group 1; unterminated, it runs to the end of the text) or a string
#: literal, which is copied verbatim so a comment opener inside it stays.
_COMMENT_RE = re.compile(r'//[^\n]*|(/\*[\s\S]*?(?:\*/|\Z))|"(?:\\[\s\S]|[^"\\])*"?')


@dataclass
class MacroDefinition:
    """A single ``#define`` entry."""

    name: str
    body: str
    parameters: list[str] | None = None
    variadic: bool = False

    @property
    def is_function_like(self) -> bool:
        return self.parameters is not None


@dataclass
class PreprocessorResult:
    """Output of a preprocessing run."""

    text: str
    macros: dict[str, MacroDefinition] = field(default_factory=dict)
    included_headers: list[str] = field(default_factory=list)
    unresolved_headers: list[str] = field(default_factory=list)


def strip_comments(source: str) -> str:
    """Remove block and line comments, preserving newlines for line numbers.

    One :data:`_COMMENT_RE` substitution, scanning left to right: a line
    comment is dropped up to its newline, a block comment becomes its
    newlines plus one space, and a string literal (an escape taking the
    next character, an unterminated one running to the end of the text) is
    copied through, so a comment opener inside it stays.  A character
    literal gets no special treatment, so a ``"`` inside one opens a
    string.
    """
    # No comment opener anywhere (even inside a string, where it would be
    # copied verbatim) means the substitution is the identity.
    if "//" not in source and "/*" not in source:
        return source
    return _COMMENT_RE.sub(_strip_match, source)


def _strip_match(match: re.Match[str]) -> str:
    block = match.group(1)
    if block is not None:
        return "\n" * block.count("\n") + " "
    text = match.group()
    return text if text[0] == '"' else ""


def _join_continuations(source: str) -> str:
    """Join lines ending with a backslash into single logical lines."""
    return re.sub(r"\\\s*\n", " ", source)


class Preprocessor:
    """Expands macros, resolves includes and evaluates conditionals."""

    def __init__(
        self,
        include_resolver: IncludeResolver | None = None,
        predefined: dict[str, str] | None = None,
        max_include_depth: int = 16,
        max_expansion_passes: int = 8,
        macro_table: dict[str, MacroDefinition] | None = None,
    ):
        self._include_resolver = include_resolver
        self._max_include_depth = max_include_depth
        self._max_expansion_passes = max_expansion_passes
        self._macros: dict[str, MacroDefinition] = {}
        if macro_table:
            # A prebuilt table (e.g. from a pre-compiled prelude header);
            # MacroDefinition values are immutable so sharing them is safe.
            self._macros.update(macro_table)
        predefined = predefined or {}
        for name, body in predefined.items():
            self._macros[name] = MacroDefinition(name=name, body=body)
        self._included: list[str] = []
        self._unresolved: list[str] = []

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def preprocess(self, source: str) -> PreprocessorResult:
        """Preprocess *source* and return the expanded text plus macro table."""
        text = self._process(source, depth=0)
        return PreprocessorResult(
            text=text,
            macros=dict(self._macros),
            included_headers=list(self._included),
            unresolved_headers=list(self._unresolved),
        )

    # ------------------------------------------------------------------
    # Directive processing.
    # ------------------------------------------------------------------

    def _process(self, source: str, depth: int) -> str:
        if depth > self._max_include_depth:
            raise PreprocessorError("maximum include depth exceeded")
        source = strip_comments(source)
        source = _join_continuations(source)

        output_lines: list[str] = []
        # Conditional stack entries: (taking, has_taken_branch)
        cond_stack: list[list[bool]] = []

        for lineno, raw_line in enumerate(source.split("\n"), start=1):
            stripped = raw_line.lstrip()
            if stripped.startswith("#"):
                self._handle_directive(
                    stripped, lineno, depth, cond_stack, output_lines
                )
                continue
            if self._active(cond_stack):
                output_lines.append(self._expand_line(raw_line))

        if cond_stack:
            raise PreprocessorError("unterminated conditional directive")
        return "\n".join(output_lines)

    def _active(self, cond_stack: list[list[bool]]) -> bool:
        return all(entry[0] for entry in cond_stack)

    def _handle_directive(
        self,
        line: str,
        lineno: int,
        depth: int,
        cond_stack: list[list[bool]],
        output_lines: list[str],
    ) -> None:
        body = line[1:].strip()
        match = _IDENT_RE.match(body)
        directive = match.group(0) if match else ""
        rest = body[len(directive) :].strip()

        if directive in ("ifdef", "ifndef", "if"):
            if not self._active(cond_stack):
                # Nested under an inactive branch: push an always-false frame so
                # the matching #endif pops correctly.
                cond_stack.append([False, True])
                return
            if directive == "ifdef":
                taking = rest.split()[0] in self._macros if rest else False
            elif directive == "ifndef":
                taking = rest.split()[0] not in self._macros if rest else True
            else:
                taking = self._evaluate_condition(rest, lineno)
            cond_stack.append([taking, taking])
        elif directive == "elif":
            if not cond_stack:
                raise PreprocessorError("#elif without #if", lineno)
            frame = cond_stack[-1]
            if frame[1]:
                frame[0] = False
            else:
                frame[0] = self._evaluate_condition(rest, lineno)
                frame[1] = frame[1] or frame[0]
        elif directive == "else":
            if not cond_stack:
                raise PreprocessorError("#else without #if", lineno)
            frame = cond_stack[-1]
            frame[0] = not frame[1]
            frame[1] = True
        elif directive == "endif":
            if not cond_stack:
                raise PreprocessorError("#endif without #if", lineno)
            cond_stack.pop()
        elif not self._active(cond_stack):
            return
        elif directive == "define":
            self._handle_define(rest, lineno)
        elif directive == "undef":
            name = rest.split()[0] if rest else ""
            self._macros.pop(name, None)
        elif directive == "include":
            self._handle_include(rest, lineno, depth, output_lines)
        elif directive == "pragma":
            return
        elif directive == "error":
            raise PreprocessorError(f"#error: {rest}", lineno)
        elif directive == "warning" or directive == "line" or directive == "":
            return
        else:
            # Unknown directive: ignore, matching Clang's -Wunknown-pragmas spirit.
            return

    def _handle_define(self, rest: str, lineno: int) -> None:
        match = _IDENT_RE.match(rest)
        if not match:
            raise PreprocessorError("malformed #define", lineno)
        name = match.group(0)
        after = rest[len(name) :]
        if after.startswith("("):
            close = after.find(")")
            if close == -1:
                raise PreprocessorError("unterminated macro parameter list", lineno)
            params_text = after[1:close].strip()
            body = after[close + 1 :].strip()
            variadic = False
            parameters: list[str] = []
            if params_text:
                for param in params_text.split(","):
                    param = param.strip()
                    if param == "...":
                        variadic = True
                    elif param:
                        parameters.append(param)
            self._macros[name] = MacroDefinition(name, body, parameters, variadic)
        else:
            self._macros[name] = MacroDefinition(name, after.strip())

    def _handle_include(
        self, rest: str, lineno: int, depth: int, output_lines: list[str]
    ) -> None:
        header = rest.strip()
        if header.startswith('"') and header.endswith('"'):
            header_name = header[1:-1]
        elif header.startswith("<") and header.endswith(">"):
            header_name = header[1:-1]
        else:
            raise PreprocessorError(f"malformed #include: {rest!r}", lineno)

        text = self._include_resolver(header_name) if self._include_resolver else None
        if text is None:
            self._unresolved.append(header_name)
            return
        self._included.append(header_name)
        output_lines.append(self._process(text, depth + 1))

    # ------------------------------------------------------------------
    # Conditional expression evaluation.
    # ------------------------------------------------------------------

    def _evaluate_condition(self, expression: str, lineno: int) -> bool:
        def replace_defined(match: re.Match[str]) -> str:
            name = match.group(1) or match.group(2)
            return "1" if name in self._macros else "0"

        expr = _DEFINED_CALL_RE.sub(replace_defined, expression)
        expr = self._expand_line(expr)
        # Any remaining identifier evaluates to 0, per the C standard.
        expr = _IDENT_RE.sub("0", expr)
        expr = expr.replace("&&", " and ").replace("||", " or ").replace("!", " not ")
        expr = expr.replace(" not =", " !=")  # repair '!=' broken by the replace above
        expr = re.sub(r"\b0+(\d)", r"\1", expr)  # avoid octal-looking literals
        if not expr.strip():
            return False
        try:
            return bool(eval(expr, {"__builtins__": {}}, {}))  # noqa: S307 - integer expr
        except Exception:
            return False

    # ------------------------------------------------------------------
    # Macro expansion.
    # ------------------------------------------------------------------

    def _expand_line(self, line: str) -> str:
        """Expand the macros in *line*, rescanning until nothing changes.

        A line that names no macro comes back unchanged without a scan:
        :meth:`_expand_once` changes text only at an identifier outside a
        string literal that names a macro, and every identifier it visits
        is also one of ``_IDENT_RE.findall(line)``, because no identifier
        can straddle the ``"`` that bounds a string.
        """
        if self._macros.keys().isdisjoint(_IDENT_RE.findall(line)):
            return line
        text = line
        for _ in range(self._max_expansion_passes):
            expanded = self._expand_once(text)
            if expanded == text:
                break
            text = expanded
        return text

    def _expand_once(self, text: str) -> str:
        # Jump from string literal to identifier with one regex search
        # instead of visiting every character: everything between matches is
        # copied through in slices, strings verbatim, and only identifiers
        # hit the macro table.
        macros = self._macros
        search = _EXPAND_SCAN_RE.search
        out: list[str] = []
        i = 0
        n = len(text)
        while i < n:
            match = search(text, i)
            if match is None:
                out.append(text[i:])
                break
            start = match.start()
            if start > i:
                out.append(text[i:start])
            name = match.group()
            i = match.end()
            if name[0] == '"':
                out.append(name)
                continue
            macro = macros.get(name)
            if macro is None:
                out.append(name)
                continue
            if not macro.is_function_like:
                out.append(macro.body)
                continue
            # Function-like macro: require an argument list.
            j = i
            while j < n and text[j] in " \t":
                j += 1
            if j >= n or text[j] != "(":
                out.append(name)
                continue
            args, end = self._parse_macro_args(text, j)
            out.append(self._substitute(macro, args))
            i = end
        return "".join(out)

    def _parse_macro_args(self, text: str, open_paren: int) -> tuple[list[str], int]:
        depth = 0
        args: list[str] = []
        current: list[str] = []
        i = open_paren
        n = len(text)
        while i < n:
            ch = text[i]
            if ch == "(":
                depth += 1
                if depth > 1:
                    current.append(ch)
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    args.append("".join(current).strip())
                    return args, i + 1
                current.append(ch)
            elif ch == "," and depth == 1:
                args.append("".join(current).strip())
                current = []
            else:
                current.append(ch)
            i += 1
        raise PreprocessorError("unterminated macro argument list")

    def _substitute(self, macro: MacroDefinition, args: list[str]) -> str:
        parameters = macro.parameters or []
        if len(args) == 1 and args[0] == "" and not parameters:
            args = []
        mapping = dict(zip(parameters, args))
        if macro.variadic:
            extra = args[len(parameters) :]
            mapping["__VA_ARGS__"] = ", ".join(extra)

        def replace(match: re.Match[str]) -> str:
            name = match.group(0)
            return mapping.get(name, name)

        body = _IDENT_RE.sub(replace, macro.body)
        # Token pasting and stringification are rare in OpenCL device code;
        # handle the common "a ## b" case and drop stray '#'.
        body = re.sub(r"\s*##\s*", "", body)
        return body


def preprocess(
    source: str,
    include_resolver: IncludeResolver | None = None,
    predefined: dict[str, str] | None = None,
) -> PreprocessorResult:
    """Convenience wrapper around :class:`Preprocessor`."""
    return Preprocessor(include_resolver, predefined).preprocess(source)
