"""Recursive-descent parser for the OpenCL C subset.

The parser produces the AST defined in :mod:`repro.clc.ast_nodes`.  It aims
for the pragmatic coverage needed by the pipeline: every kernel in the
bundled benchmark suites, the corpus generator's output, and the shapes of
code the language model synthesizes.  Constructs outside the subset raise
:class:`ParseError`, which the rejection filter treats as "does not compile"
— exactly the role the Clang/PTX toolchain plays in the paper.
"""

from __future__ import annotations

from repro.clc import ast_nodes as ast
from repro.clc.lexer import Token, TokenKind, tokenize
from repro.clc.types import (
    AddressSpace,
    PointerType,
    StructType,
    Type,
    TypeTable,
    VOID,
)
from repro.errors import ParseError

_ADDRESS_SPACE_QUALIFIERS = {
    "__global",
    "global",
    "__local",
    "local",
    "__constant",
    "constant",
    "__private",
    "private",
}

_ACCESS_QUALIFIERS = {
    "__read_only",
    "read_only",
    "__write_only",
    "write_only",
    "__read_write",
    "read_write",
}

_TYPE_QUALIFIERS = {"const", "volatile", "restrict", "static", "register"}

_OPAQUE_TYPE_NAMES = (
    "image1d_t",
    "image2d_t",
    "image3d_t",
    "image2d_array_t",
    "sampler_t",
    "event_t",
    "queue_t",
)

_ASSIGNMENT_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

#: Qualifiers a parameter may carry after each pointer star.
_POINTER_QUALIFIERS = _TYPE_QUALIFIERS | {"__restrict"}

#: Qualifiers that may open a cast's type name.
_CAST_QUALIFIERS = _ADDRESS_SPACE_QUALIFIERS | _TYPE_QUALIFIERS

#: Binary operators by precedence, loosest first; each level is
#: left-associative.
_BINARY_LEVELS: tuple[tuple[str, ...], ...] = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)

#: The index in :data:`_BINARY_LEVELS` of each binary operator.
_BINARY_PRECEDENCE = {
    operator: level for level, operators in enumerate(_BINARY_LEVELS) for operator in operators
}

_PREFIX_OPERATORS = frozenset({"-", "+", "!", "~", "*", "&", "++", "--"})

#: How deeply statements, expressions, initializer lists and struct bodies
#: may nest.  Each of the parser's recursive entry points, and each right
#: operand of a binary operator, counts one level while it runs, and a
#: deeper input raises :class:`ParseError` instead of exhausting the Python
#: stack.  Every workload input nests far shallower, and an input at the
#: limit still leaves room on the stack for the recursive passes after
#: parsing (semantic checks, lowering and every execution engine).
MAX_NESTING_DEPTH = 128


class Parser:
    """Parses a token stream into a :class:`TranslationUnit`."""

    def __init__(self, tokens: list[Token], type_table: TypeTable | None = None):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0
        self._types = type_table.copy() if type_table else TypeTable()
        for name in _OPAQUE_TYPE_NAMES:
            if not self._types.is_type_name(name):
                self._types.define_typedef(name, StructType(name))

    # ------------------------------------------------------------------
    # Token helpers.
    # ------------------------------------------------------------------

    # The EOF token is always last and _advance never moves past it, so
    # self._tokens[self._pos] is always in range; only lookahead clamps.

    def _peek(self, offset: int = 0) -> Token:
        if offset:
            return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]
        return self._tokens[self._pos]

    def _at_end(self) -> bool:
        return self._tokens[self._pos].kind is TokenKind.EOF

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _check(self, text: str) -> bool:
        token = self._tokens[self._pos]
        return token.text == text and token.kind is not TokenKind.EOF

    def _check_kind(self, kind: TokenKind) -> bool:
        return self._tokens[self._pos].kind is kind

    def _match(self, text: str) -> bool:
        token = self._tokens[self._pos]
        if token.text == text and token.kind is not TokenKind.EOF:
            self._pos += 1
            return True
        return False

    def _expect(self, text: str) -> Token:
        token = self._tokens[self._pos]
        if token.text != text or token.kind is TokenKind.EOF:
            raise ParseError(
                f"expected {text!r} but found {token.text!r}", token.line, token.column
            )
        self._pos += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message + f" (near {token.text!r})", token.line, token.column)

    def _enter(self) -> int:
        """Count one more nesting level; the caller restores the count on
        return.  A :class:`ParseError` abandons the parse, so nothing
        restores it on the way out."""
        depth = self._depth + 1
        if depth > MAX_NESTING_DEPTH:
            token = self._tokens[self._pos]
            raise ParseError(
                f"nesting deeper than {MAX_NESTING_DEPTH} levels", token.line, token.column
            )
        self._depth = depth
        return depth

    # ------------------------------------------------------------------
    # Entry point.
    # ------------------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while not self._at_end():
            if self._match(";"):
                continue
            if self._check("typedef"):
                self._parse_typedef(unit)
            elif self._check("struct") and self._peek(2).text == "{":
                self._parse_struct_decl(unit)
            else:
                self._parse_function_or_global(unit)
        return unit

    @property
    def type_table(self) -> TypeTable:
        return self._types

    # ------------------------------------------------------------------
    # Top-level declarations.
    # ------------------------------------------------------------------

    def _parse_typedef(self, unit: ast.TranslationUnit) -> None:
        token = self._expect("typedef")
        if self._check("struct"):
            struct = self._parse_struct_body()
            name_token = self._advance()
            if name_token.kind is not TokenKind.IDENTIFIER:
                raise self._error("expected typedef struct name")
            named = StructType(name_token.text, struct.fields)
            self._types.define_struct(named)
            self._types.define_typedef(name_token.text, named)
            unit.typedefs.append(
                ast.TypedefDecl(
                    name=name_token.text,
                    target_type=named,
                    target_type_name=str(named),
                    line=token.line,
                )
            )
            self._expect(";")
            return
        target_type, type_name = self._parse_type_specifier()
        while self._match("*"):
            target_type = PointerType(target_type)
            type_name += "*"
        name_token = self._advance()
        if name_token.kind is not TokenKind.IDENTIFIER:
            raise self._error("expected typedef name")
        self._types.define_typedef(name_token.text, target_type)
        unit.typedefs.append(
            ast.TypedefDecl(
                name=name_token.text,
                target_type=target_type,
                target_type_name=type_name,
                line=token.line,
            )
        )
        self._expect(";")

    def _parse_struct_body(self) -> StructType:
        depth = self._enter()
        self._expect("struct")
        name = ""
        if self._check_kind(TokenKind.IDENTIFIER):
            name = self._advance().text
        fields: list[tuple[str, Type]] = []
        if self._check("{"):
            self._expect("{")
            while not self._check("}") and not self._at_end():
                field_type, _ = self._parse_type_specifier()
                while self._match("*"):
                    field_type = PointerType(field_type)
                field_name = self._advance().text
                if self._match("["):
                    self.parse_expression()
                    self._expect("]")
                fields.append((field_name, field_type))
                while self._match(","):
                    extra_name = self._advance().text
                    fields.append((extra_name, field_type))
                self._expect(";")
            self._expect("}")
        struct = StructType(name or "<anonymous>", tuple(fields))
        if name:
            self._types.define_struct(struct)
        self._depth = depth - 1
        return struct

    def _parse_struct_decl(self, unit: ast.TranslationUnit) -> None:
        line = self._peek().line
        struct = self._parse_struct_body()
        self._expect(";")
        unit.structs.append(
            ast.StructDecl(
                name=struct.name,
                fields=[
                    ast.Declarator(name=field_name, declared_type=field_type)
                    for field_name, field_type in struct.fields
                ],
                line=line,
            )
        )

    def _parse_function_or_global(self, unit: ast.TranslationUnit) -> None:
        start_line = self._peek().line
        is_kernel = False
        is_inline = False
        is_constant_global = False
        attributes: list[str] = []

        # Leading qualifiers in any order.
        while True:
            token = self._peek()
            if token.text in ("__kernel", "kernel"):
                is_kernel = True
                self._advance()
            elif token.text in ("inline", "static", "extern"):
                is_inline = is_inline or token.text == "inline"
                self._advance()
            elif token.text in ("__constant", "constant"):
                is_constant_global = True
                self._advance()
            elif token.text == "__attribute__":
                attributes.append(self._parse_attribute())
            else:
                break

        return_type, return_type_name = self._parse_type_specifier()
        while self._match("*"):
            return_type = PointerType(return_type)
            return_type_name += "*"

        while self._check("__attribute__"):
            attributes.append(self._parse_attribute())

        name_token = self._advance()
        if name_token.kind not in (TokenKind.IDENTIFIER, TokenKind.KEYWORD):
            raise self._error("expected function or variable name")
        name = name_token.text

        if self._check("("):
            function = self._parse_function_rest(
                name, return_type, return_type_name, is_kernel, is_inline, attributes
            )
            function.line = start_line
            unit.functions.append(function)
            return

        # Global variable declaration.
        declarator = self._parse_declarator_rest(name, return_type, return_type_name)
        unit.globals.append(
            ast.GlobalVarDecl(
                declarator=declarator, is_constant=is_constant_global, line=start_line
            )
        )
        while self._match(","):
            extra_name = self._advance().text
            extra = self._parse_declarator_rest(extra_name, return_type, return_type_name)
            unit.globals.append(
                ast.GlobalVarDecl(declarator=extra, is_constant=is_constant_global, line=start_line)
            )
        self._expect(";")

    def _parse_attribute(self) -> str:
        self._expect("__attribute__")
        self._expect("(")
        self._expect("(")
        depth = 2
        parts: list[str] = []
        while depth > 0 and not self._at_end():
            token = self._advance()
            if token.text == "(":
                depth += 1
            elif token.text == ")":
                depth -= 1
                if depth == 0:
                    break
            parts.append(token.text)
        return " ".join(parts[:-1] if parts and parts[-1] == ")" else parts)

    def _parse_function_rest(
        self,
        name: str,
        return_type: Type,
        return_type_name: str,
        is_kernel: bool,
        is_inline: bool,
        attributes: list[str],
    ) -> ast.FunctionDecl:
        self._expect("(")
        parameters: list[ast.ParameterDecl] = []
        if not self._check(")"):
            if self._check("void") and self._peek(1).text == ")":
                self._advance()
            else:
                parameters.append(self._parse_parameter())
                while self._match(","):
                    parameters.append(self._parse_parameter())
        self._expect(")")

        while self._check("__attribute__"):
            attributes.append(self._parse_attribute())

        body: ast.CompoundStmt | None = None
        if self._check("{"):
            body = self._parse_compound_statement()
        else:
            self._expect(";")

        return ast.FunctionDecl(
            name=name,
            return_type=return_type,
            return_type_name=return_type_name,
            parameters=parameters,
            body=body,
            is_kernel=is_kernel,
            is_inline=is_inline,
            attributes=attributes,
        )

    def _parse_parameter(self) -> ast.ParameterDecl:
        line = self._peek().line
        address_space = AddressSpace.PRIVATE
        is_const = False
        access: str | None = None

        while True:
            token = self._peek()
            if token.text in _ADDRESS_SPACE_QUALIFIERS:
                address_space = AddressSpace.from_qualifier(token.text)
                self._advance()
            elif token.text in _ACCESS_QUALIFIERS:
                access = token.text.lstrip("_")
                self._advance()
            elif token.text in _TYPE_QUALIFIERS:
                is_const = is_const or token.text == "const"
                self._advance()
            else:
                break

        base_type, type_name = self._parse_type_specifier()

        # Trailing qualifiers between type and '*' or name ("float const * a").
        while self._peek().text in _TYPE_QUALIFIERS:
            is_const = is_const or self._peek().text == "const"
            self._advance()

        pointer_depth = 0
        while self._match("*"):
            pointer_depth += 1
            while self._peek().text in _POINTER_QUALIFIERS:
                self._advance()

        declared_type: Type = base_type
        for _ in range(pointer_depth):
            declared_type = PointerType(declared_type, address_space, is_const, access)

        name = ""
        if self._check_kind(TokenKind.IDENTIFIER):
            name = self._advance().text
        if self._match("["):
            if not self._check("]"):
                self.parse_expression()
            self._expect("]")
            declared_type = PointerType(base_type, address_space, is_const, access)
            pointer_depth = 1

        rendered = type_name + "*" * pointer_depth
        return ast.ParameterDecl(
            name=name,
            declared_type=declared_type,
            type_name=rendered,
            address_space=address_space,
            is_const=is_const,
            access=access,
            line=line,
        )

    # ------------------------------------------------------------------
    # Types.
    # ------------------------------------------------------------------

    def _looks_like_type(self, offset: int = 0) -> bool:
        token = self._peek(offset)
        if token.text in ("unsigned", "signed", "struct", "void"):
            return True
        if token.text in _ADDRESS_SPACE_QUALIFIERS or token.text in _TYPE_QUALIFIERS:
            return True
        return self._types.is_type_name(token.text)

    def _parse_type_specifier(self) -> tuple[Type, str]:
        token = self._peek()
        if token.text == "struct":
            struct = self._parse_struct_body()
            return struct, str(struct)
        if token.text in ("unsigned", "signed"):
            words = [self._advance().text]
            while self._peek().text in ("int", "char", "short", "long"):
                words.append(self._advance().text)
            spelled = " ".join(words)
            resolved = self._types.lookup(spelled) or self._types.lookup(
                " ".join(words[1:]) or "int"
            )
            if resolved is None:
                resolved = self._types.lookup("uint" if words[0] == "unsigned" else "int")
            assert resolved is not None
            return resolved, spelled
        if token.text == "long" and self._peek(1).text in ("long", "int"):
            words = [self._advance().text]
            while self._peek().text in ("long", "int"):
                words.append(self._advance().text)
            return self._types.lookup("long"), " ".join(words)  # type: ignore[return-value]
        if token.text == "void":
            self._advance()
            return VOID, "void"
        resolved = self._types.lookup(token.text)
        if resolved is not None:
            self._advance()
            return resolved, token.text
        raise ParseError(f"unknown type name {token.text!r}", token.line, token.column)

    # ------------------------------------------------------------------
    # Statements.
    # ------------------------------------------------------------------

    def _parse_compound_statement(self) -> ast.CompoundStmt:
        open_token = self._expect("{")
        statements: list[ast.Statement] = []
        while not self._check("}"):
            if self._at_end():
                raise ParseError("unexpected end of input in block", open_token.line)
            statements.append(self.parse_statement())
        self._expect("}")
        return ast.CompoundStmt(statements=statements, line=open_token.line)

    def parse_statement(self) -> ast.Statement:
        depth = self._enter()
        token = self._tokens[self._pos]
        text = token.text

        statement: ast.Statement
        if text == "{":
            statement = self._parse_compound_statement()
        elif text == ";":
            self._advance()
            statement = ast.EmptyStmt(line=token.line)
        elif text == "if":
            statement = self._parse_if()
        elif text == "for":
            statement = self._parse_for()
        elif text == "while":
            statement = self._parse_while()
        elif text == "do":
            statement = self._parse_do_while()
        elif text == "switch":
            statement = self._parse_switch()
        elif text == "return":
            self._advance()
            value = None if self._check(";") else self.parse_expression()
            self._expect(";")
            statement = ast.ReturnStmt(value=value, line=token.line)
        elif text == "break":
            self._advance()
            self._expect(";")
            statement = ast.BreakStmt(line=token.line)
        elif text == "continue":
            self._advance()
            self._expect(";")
            statement = ast.ContinueStmt(line=token.line)
        elif self._starts_declaration():
            statement = self._parse_declaration_statement()
        else:
            expression = self.parse_expression()
            self._expect(";")
            statement = ast.ExprStmt(expression=expression, line=token.line)
        self._depth = depth - 1
        return statement

    def _starts_declaration(self) -> bool:
        token = self._peek()
        if token.text in _ADDRESS_SPACE_QUALIFIERS or token.text in _TYPE_QUALIFIERS:
            return True
        if token.text in ("unsigned", "signed", "struct"):
            return True
        if token.kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD) and self._types.is_type_name(
            token.text
        ):
            # "float x" or "float4 v" — a type name followed by an identifier
            # or '*' begins a declaration; "float(x)" would not (and is not
            # valid C anyway).
            nxt = self._peek(1)
            return nxt.kind is TokenKind.IDENTIFIER or nxt.text == "*"
        return False

    def _parse_declaration_statement(self) -> ast.DeclStmt:
        line = self._peek().line
        address_space = AddressSpace.PRIVATE
        while True:
            token = self._peek()
            if token.text in _ADDRESS_SPACE_QUALIFIERS:
                address_space = AddressSpace.from_qualifier(token.text)
                self._advance()
            elif token.text in _TYPE_QUALIFIERS:
                self._advance()
            else:
                break

        base_type, type_name = self._parse_type_specifier()
        declarators: list[ast.Declarator] = []

        while True:
            pointer_depth = 0
            while self._match("*"):
                pointer_depth += 1
            name_token = self._advance()
            if name_token.kind is not TokenKind.IDENTIFIER:
                raise ParseError(
                    f"expected identifier in declaration, found {name_token.text!r}",
                    name_token.line,
                    name_token.column,
                )
            declared_type: Type = base_type
            for _ in range(pointer_depth):
                declared_type = PointerType(declared_type, address_space)

            array_size: ast.Expression | None = None
            if self._match("["):
                if not self._check("]"):
                    array_size = self.parse_expression()
                self._expect("]")
                declared_type = PointerType(base_type, address_space)

            initializer: ast.Expression | None = None
            if self._match("="):
                if self._check("{"):
                    initializer = self._parse_initializer_list()
                else:
                    initializer = self.parse_assignment_expression()

            declarators.append(
                ast.Declarator(
                    name=name_token.text,
                    declared_type=declared_type,
                    type_name=type_name + "*" * pointer_depth,
                    array_size=array_size,
                    initializer=initializer,
                    address_space=address_space,
                    line=name_token.line,
                )
            )
            if not self._match(","):
                break

        self._expect(";")
        return ast.DeclStmt(declarators=declarators, line=line)

    def _parse_declarator_rest(
        self, name: str, declared_type: Type, type_name: str
    ) -> ast.Declarator:
        """The ``[size]`` / ``= initializer`` tail of a global declarator.

        Called by :meth:`_parse_function_or_global` once the declared name
        has been consumed (pointer stars are already folded into
        *declared_type* at that point).
        """
        line = self._peek().line
        array_size: ast.Expression | None = None
        if self._match("["):
            if not self._check("]"):
                array_size = self.parse_expression()
            self._expect("]")
            declared_type = PointerType(declared_type)

        initializer: ast.Expression | None = None
        if self._match("="):
            if self._check("{"):
                initializer = self._parse_initializer_list()
            else:
                initializer = self.parse_assignment_expression()

        return ast.Declarator(
            name=name,
            declared_type=declared_type,
            type_name=type_name,
            array_size=array_size,
            initializer=initializer,
            line=line,
        )

    def _parse_initializer_list(self) -> ast.InitializerList:
        depth = self._enter()
        open_token = self._expect("{")
        elements: list[ast.Expression] = []
        if not self._check("}"):
            if self._check("{"):
                elements.append(self._parse_initializer_list())
            else:
                elements.append(self.parse_assignment_expression())
            while self._match(","):
                if self._check("}"):
                    break
                if self._check("{"):
                    elements.append(self._parse_initializer_list())
                else:
                    elements.append(self.parse_assignment_expression())
        self._expect("}")
        self._depth = depth - 1
        return ast.InitializerList(elements=elements, line=open_token.line)

    def _parse_if(self) -> ast.IfStmt:
        token = self._expect("if")
        self._expect("(")
        condition = self.parse_expression()
        self._expect(")")
        then_branch = self.parse_statement()
        else_branch = None
        if self._match("else"):
            else_branch = self.parse_statement()
        return ast.IfStmt(
            condition=condition, then_branch=then_branch, else_branch=else_branch, line=token.line
        )

    def _parse_for(self) -> ast.ForStmt:
        token = self._expect("for")
        self._expect("(")
        init: ast.Statement | None = None
        if not self._check(";"):
            if self._starts_declaration():
                init = self._parse_declaration_statement()
            else:
                expression = self.parse_expression()
                self._expect(";")
                init = ast.ExprStmt(expression=expression)
        else:
            self._advance()
        condition = None if self._check(";") else self.parse_expression()
        self._expect(";")
        increment = None if self._check(")") else self.parse_expression()
        self._expect(")")
        body = self.parse_statement()
        return ast.ForStmt(
            init=init, condition=condition, increment=increment, body=body, line=token.line
        )

    def _parse_while(self) -> ast.WhileStmt:
        token = self._expect("while")
        self._expect("(")
        condition = self.parse_expression()
        self._expect(")")
        body = self.parse_statement()
        return ast.WhileStmt(condition=condition, body=body, line=token.line)

    def _parse_do_while(self) -> ast.DoWhileStmt:
        token = self._expect("do")
        body = self.parse_statement()
        self._expect("while")
        self._expect("(")
        condition = self.parse_expression()
        self._expect(")")
        self._expect(";")
        return ast.DoWhileStmt(body=body, condition=condition, line=token.line)

    def _parse_switch(self) -> ast.SwitchStmt:
        token = self._expect("switch")
        self._expect("(")
        condition = self.parse_expression()
        self._expect(")")
        self._expect("{")
        cases: list[ast.SwitchCase] = []
        current: ast.SwitchCase | None = None
        while not self._check("}") and not self._at_end():
            if self._match("case"):
                value = self.parse_expression()
                self._expect(":")
                current = ast.SwitchCase(value=value)
                cases.append(current)
            elif self._match("default"):
                self._expect(":")
                current = ast.SwitchCase(value=None)
                cases.append(current)
            else:
                if current is None:
                    raise self._error("statement outside of case in switch")
                current.body.append(self.parse_statement())
        self._expect("}")
        return ast.SwitchStmt(condition=condition, cases=cases, line=token.line)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing).
    # ------------------------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        expression = self.parse_assignment_expression()
        while self._match(","):
            right = self.parse_assignment_expression()
            expression = ast.BinaryOp(op=",", left=expression, right=right)
        return expression

    def parse_assignment_expression(self) -> ast.Expression:
        depth = self._enter()
        left = self._parse_ternary()
        token = self._tokens[self._pos]
        if token.text in _ASSIGNMENT_OPS:
            self._pos += 1
            value = self.parse_assignment_expression()
            left = ast.Assignment(
                op=token.text, target=left, value=value, line=token.line, column=token.column
            )
        self._depth = depth - 1
        return left

    def _parse_ternary(self) -> ast.Expression:
        condition = self._parse_binary(0)
        if self._match("?"):
            if_true = self.parse_assignment_expression()
            self._expect(":")
            if_false = self.parse_assignment_expression()
            return ast.TernaryOp(condition=condition, if_true=if_true, if_false=if_false)
        return condition

    def _parse_binary(self, level: int) -> ast.Expression:
        """Parse operands joined by binary operators of *level* or tighter.

        Precedence climbing over :data:`_BINARY_PRECEDENCE`: each operand
        is one :meth:`_parse_unary` call, the loop folds operators of
        *level* or tighter to the left, and only the right operand of an
        operator recurses, at the next tighter level, so it takes every
        operator that binds tighter.  The result is the tree a descent
        through every level of :data:`_BINARY_LEVELS` per operand builds:
        each level left-associative, and each :class:`~ast.BinaryOp` at its
        operator token's line and column.  A right operand counts one
        nesting level while it is parsed, so a chain of ever tighter
        operators is bounded like nested parentheses.
        """
        left = self._parse_unary()
        tokens = self._tokens
        while True:
            token = tokens[self._pos]
            op_level = _BINARY_PRECEDENCE.get(token.text)
            if op_level is None or op_level < level or token.kind is not TokenKind.PUNCTUATOR:
                return left
            self._pos += 1
            depth = self._enter()
            right = self._parse_binary(op_level + 1)
            self._depth = depth - 1
            left = ast.BinaryOp(
                op=token.text, left=left, right=right, line=token.line, column=token.column
            )

    def _parse_unary(self) -> ast.Expression:
        depth = self._enter()
        token = self._tokens[self._pos]
        text = token.text
        expression: ast.Expression
        if text in _PREFIX_OPERATORS:
            self._pos += 1
            operand = self._parse_unary()
            expression = ast.UnaryOp(op=text, operand=operand, line=token.line)
        elif text == "sizeof":
            self._pos += 1
            if self._match("("):
                if self._looks_like_type():
                    _, type_name = self._parse_type_specifier()
                    while self._match("*"):
                        type_name += "*"
                    self._expect(")")
                else:
                    inner = self.parse_expression()
                    self._expect(")")
                    type_name = str(inner)
            else:
                self._parse_unary()
                type_name = "<expr>"
            expression = ast.SizeOf(target_type_name=type_name, line=token.line)
        elif text == "(" and self._is_cast_expression():
            expression = self._parse_cast()
        else:
            expression = self._parse_postfix()
        self._depth = depth - 1
        return expression

    def _is_cast_expression(self) -> bool:
        """A '(' starts a cast when it is immediately followed by a type."""
        assert self._check("(")
        offset = 1
        token = self._peek(offset)
        if token.text in _ADDRESS_SPACE_QUALIFIERS or token.text in _TYPE_QUALIFIERS:
            return True
        if token.text in ("unsigned", "signed", "struct", "void"):
            return True
        if not self._types.is_type_name(token.text):
            return False
        # Confirm the next token closes the cast (allowing pointer stars).
        offset += 1
        while self._peek(offset).text == "*":
            offset += 1
        return self._peek(offset).text == ")"

    def _parse_cast(self) -> ast.Expression:
        open_token = self._expect("(")
        while self._peek().text in _CAST_QUALIFIERS:
            self._advance()
        target_type, type_name = self._parse_type_specifier()
        pointer_depth = 0
        while self._match("*"):
            pointer_depth += 1
        for _ in range(pointer_depth):
            target_type = PointerType(target_type)
        self._expect(")")

        # OpenCL vector literal: (float4)(a, b, c, d).
        if target_type.is_vector and self._check("("):
            self._expect("(")
            elements = [self.parse_assignment_expression()]
            while self._match(","):
                elements.append(self.parse_assignment_expression())
            self._expect(")")
            return ast.VectorLiteral(
                target_type=target_type,
                target_type_name=type_name + "*" * pointer_depth,
                elements=elements,
                line=open_token.line,
            )

        operand = self._parse_unary()
        return ast.Cast(
            target_type=target_type,
            target_type_name=type_name + "*" * pointer_depth,
            operand=operand,
            line=open_token.line,
        )

    def _parse_postfix(self) -> ast.Expression:
        expression = self._parse_primary()
        while True:
            token = self._tokens[self._pos]
            if token.text == "[":
                self._pos += 1
                index = self.parse_expression()
                self._expect("]")
                expression = ast.Index(base=expression, index=index, line=token.line)
            elif token.text == "(" and isinstance(expression, ast.Identifier):
                self._pos += 1
                arguments: list[ast.Expression] = []
                if not self._check(")"):
                    arguments.append(self.parse_assignment_expression())
                    while self._match(","):
                        arguments.append(self.parse_assignment_expression())
                self._expect(")")
                expression = ast.Call(
                    callee=expression.name, arguments=arguments, line=token.line
                )
            elif token.text in (".", "->"):
                self._advance()
                member_token = self._advance()
                expression = ast.Member(
                    base=expression,
                    member=member_token.text,
                    arrow=token.text == "->",
                    line=token.line,
                )
            elif token.text in ("++", "--"):
                self._pos += 1
                expression = ast.PostfixOp(op=token.text, operand=expression, line=token.line)
            else:
                return expression

    def _parse_primary(self) -> ast.Expression:
        token = self._tokens[self._pos]
        if token.kind is TokenKind.INT_LITERAL:
            self._pos += 1
            return ast.IntLiteral(
                value=_parse_int_literal(token.text), text=token.text, line=token.line
            )
        if token.kind is TokenKind.FLOAT_LITERAL:
            self._pos += 1
            return ast.FloatLiteral(
                value=_parse_float_literal(token.text), text=token.text, line=token.line
            )
        if token.kind is TokenKind.CHAR_LITERAL:
            self._pos += 1
            return ast.CharLiteral(value=token.text, line=token.line)
        if token.kind is TokenKind.STRING_LITERAL:
            self._pos += 1
            return ast.StringLiteral(value=token.text, line=token.line)
        if token.kind is TokenKind.IDENTIFIER:
            self._pos += 1
            return ast.Identifier(name=token.text, line=token.line, column=token.column)
        if token.text == "(":
            self._pos += 1
            expression = self.parse_expression()
            self._expect(")")
            return expression
        raise ParseError(
            f"unexpected token {token.text!r} in expression", token.line, token.column
        )


def _parse_int_literal(text: str) -> int:
    stripped = text.rstrip("uUlL")
    try:
        return int(stripped, 0)
    except ValueError:
        return 0


def _parse_float_literal(text: str) -> float:
    stripped = text.rstrip("fFhHlL")
    try:
        return float(stripped)
    except ValueError:
        return 0.0


def parse(source: str, type_table: TypeTable | None = None) -> ast.TranslationUnit:
    """Parse preprocessed OpenCL C *source* into a translation unit."""
    tokens = tokenize(source)
    return Parser(tokens, type_table).parse_translation_unit()


def parse_kernel(source: str) -> ast.FunctionDecl:
    """Parse *source* and return its first kernel function.

    Raises :class:`ParseError` if the source contains no kernel.
    """
    unit = parse(source)
    kernels = unit.kernels
    if not kernels:
        raise ParseError("no __kernel function found")
    return kernels[0]
