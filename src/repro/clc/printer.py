"""Pretty-printer: AST back to normalized OpenCL C source.

The code rewriter (paper §4.1, step 3) enforces "a variant of the Google C++
code style ... to ensure consistent use of braces, parentheses, and white
space".  We achieve the same effect by unparsing the AST with a single
canonical style: two-space indentation, braces on the same line, one space
around binary operators, mandatory braces around control-flow bodies.
Because the printer emits resolved type names, typedef aliases introduced by
project headers or the shim disappear from the normalized code, further
shrinking the vocabulary the language model has to learn.
"""

from __future__ import annotations

from repro.clc import ast_nodes as ast
from repro.clc.types import AddressSpace, PointerType, Type

_INDENT = "  "


class SourcePrinter:
    """Renders AST nodes as canonical OpenCL C text."""

    def __init__(self, indent: str = _INDENT):
        self._indent = indent

    # ------------------------------------------------------------------
    # Top level.
    # ------------------------------------------------------------------

    def print_translation_unit(self, unit: ast.TranslationUnit) -> str:
        chunks: list[str] = []
        for typedef in unit.typedefs:
            chunks.append(f"typedef {typedef.target_type_name} {typedef.name};")
        for declaration in unit.globals:
            chunks.append(self._print_global(declaration))
        for function in unit.functions:
            if function.body is None:
                continue
            chunks.append(self.print_function(function))
        return "\n\n".join(chunks) + "\n"

    def print_function(self, function: ast.FunctionDecl) -> str:
        qualifiers = []
        if function.is_kernel:
            qualifiers.append("__kernel")
        if function.is_inline:
            qualifiers.append("inline")
        qualifiers.append(self._type_name(function.return_type, function.return_type_name))
        header = " ".join(qualifiers) + " " + function.name + "("
        parameters = ", ".join(self._print_parameter(p) for p in function.parameters)
        header += parameters + ")"
        if function.body is None:
            return header + ";"
        body = self._print_block(function.body, 0)
        return header + " " + body

    def _print_global(self, declaration: ast.GlobalVarDecl) -> str:
        declarator = declaration.declarator
        qualifier = "__constant " if declaration.is_constant else ""
        text = qualifier + self._print_declarator(declarator)
        return text + ";"

    def _print_parameter(self, parameter: ast.ParameterDecl) -> str:
        parts: list[str] = []
        declared = parameter.declared_type
        if isinstance(declared, PointerType):
            if declared.address_space is AddressSpace.GLOBAL:
                parts.append("__global")
            elif declared.address_space is AddressSpace.LOCAL:
                parts.append("__local")
            elif declared.address_space is AddressSpace.CONSTANT:
                parts.append("__constant")
            if parameter.is_const or declared.is_const:
                parts.append("const")
            parts.append(f"{self._type_name(declared.pointee, parameter.type_name.rstrip('*'))}*")
        else:
            if parameter.is_const:
                parts.append("const")
            parts.append(self._type_name(declared, parameter.type_name))
        if parameter.name:
            parts.append(parameter.name)
        return " ".join(parts)

    @staticmethod
    def _type_name(declared: Type | None, fallback: str) -> str:
        if declared is None:
            return fallback or "void"
        text = str(declared)
        if text.startswith("struct <anonymous>"):
            return fallback or "int"
        return text

    # ------------------------------------------------------------------
    # Statements.
    # ------------------------------------------------------------------

    def _print_block(self, block: ast.CompoundStmt, depth: int) -> str:
        inner = self._indent * (depth + 1)
        lines = ["{"]
        for statement in block.statements:
            rendered = self.print_statement(statement, depth + 1)
            if rendered:
                lines.append(inner + rendered if not rendered.startswith(inner) else rendered)
        lines.append(self._indent * depth + "}")
        return "\n".join(lines)

    def print_statement(self, statement: ast.Statement, depth: int = 0) -> str:
        indent = self._indent * depth
        if isinstance(statement, ast.CompoundStmt):
            return self._print_block(statement, depth)
        if isinstance(statement, ast.DeclStmt):
            rendered = "; ".join(self._print_declarator(d) for d in statement.declarators)
            return rendered + ";"
        if isinstance(statement, ast.ExprStmt):
            if statement.expression is None:
                return ";"
            return self.print_expression(statement.expression) + ";"
        if isinstance(statement, ast.IfStmt):
            text = f"if ({self.print_expression(statement.condition)}) "
            text += self._statement_as_block(statement.then_branch, depth)
            if statement.else_branch is not None:
                text += " else "
                if isinstance(statement.else_branch, ast.IfStmt):
                    text += self.print_statement(statement.else_branch, depth)
                else:
                    text += self._statement_as_block(statement.else_branch, depth)
            return text
        if isinstance(statement, ast.ForStmt):
            init = ""
            if isinstance(statement.init, ast.DeclStmt):
                init = "; ".join(self._print_declarator(d) for d in statement.init.declarators)
            elif isinstance(statement.init, ast.ExprStmt) and statement.init.expression is not None:
                init = self.print_expression(statement.init.expression)
            condition = self.print_expression(statement.condition) if statement.condition else ""
            increment = self.print_expression(statement.increment) if statement.increment else ""
            text = f"for ({init}; {condition}; {increment}) "
            return text + self._statement_as_block(statement.body, depth)
        if isinstance(statement, ast.WhileStmt):
            text = f"while ({self.print_expression(statement.condition)}) "
            return text + self._statement_as_block(statement.body, depth)
        if isinstance(statement, ast.DoWhileStmt):
            text = "do " + self._statement_as_block(statement.body, depth)
            return text + f" while ({self.print_expression(statement.condition)});"
        if isinstance(statement, ast.ReturnStmt):
            if statement.value is None:
                return "return;"
            return f"return {self.print_expression(statement.value)};"
        if isinstance(statement, ast.BreakStmt):
            return "break;"
        if isinstance(statement, ast.ContinueStmt):
            return "continue;"
        if isinstance(statement, ast.SwitchStmt):
            lines = [f"switch ({self.print_expression(statement.condition)}) {{"]
            for case in statement.cases:
                if case.value is None:
                    lines.append(self._indent * (depth + 1) + "default:")
                else:
                    lines.append(
                        self._indent * (depth + 1) + f"case {self.print_expression(case.value)}:"
                    )
                for child in case.body:
                    lines.append(self._indent * (depth + 2) + self.print_statement(child, depth + 2))
            lines.append(indent + "}")
            return "\n".join(lines)
        if isinstance(statement, ast.EmptyStmt):
            return ";"
        return "/* unsupported statement */;"

    def _statement_as_block(self, statement: ast.Statement, depth: int) -> str:
        if isinstance(statement, ast.CompoundStmt):
            return self._print_block(statement, depth)
        wrapper = ast.CompoundStmt(statements=[statement])
        return self._print_block(wrapper, depth)

    def _print_declarator(self, declarator: ast.Declarator) -> str:
        declared = declarator.declared_type
        prefix = ""
        if declarator.address_space is AddressSpace.LOCAL:
            prefix = "__local "
        elif declarator.address_space is AddressSpace.CONSTANT:
            prefix = "__constant "
        if declarator.array_size is not None and isinstance(declared, PointerType):
            base = self._type_name(declared.pointee, declarator.type_name.rstrip("*"))
            size = self.print_expression(declarator.array_size)
            text = f"{prefix}{base} {declarator.name}[{size}]"
        elif isinstance(declared, PointerType):
            base = self._type_name(declared.pointee, declarator.type_name.rstrip("*"))
            text = f"{prefix}{base}* {declarator.name}"
        else:
            text = f"{prefix}{self._type_name(declared, declarator.type_name)} {declarator.name}"
        if declarator.initializer is not None:
            text += f" = {self.print_expression(declarator.initializer)}"
        return text

    # ------------------------------------------------------------------
    # Expressions.
    # ------------------------------------------------------------------

    def print_expression(self, expression: ast.Expression | None) -> str:
        if expression is None:
            return ""
        if isinstance(expression, ast.IntLiteral):
            return expression.text or str(expression.value)
        if isinstance(expression, ast.FloatLiteral):
            return expression.text or repr(expression.value)
        if isinstance(expression, (ast.CharLiteral, ast.StringLiteral)):
            return expression.value
        if isinstance(expression, ast.Identifier):
            return expression.name
        if isinstance(expression, ast.UnaryOp):
            operand = self.print_expression(expression.operand)
            if isinstance(expression.operand, (ast.BinaryOp, ast.TernaryOp, ast.Assignment)):
                operand = f"({operand})"
            return f"{expression.op}{operand}"
        if isinstance(expression, ast.PostfixOp):
            return f"{self.print_expression(expression.operand)}{expression.op}"
        if isinstance(expression, ast.BinaryOp):
            left = self.print_expression(expression.left)
            right = self.print_expression(expression.right)
            if isinstance(expression.left, (ast.BinaryOp, ast.TernaryOp, ast.Assignment)):
                left = f"({left})"
            if isinstance(expression.right, (ast.BinaryOp, ast.TernaryOp, ast.Assignment)):
                right = f"({right})"
            if expression.op == ",":
                return f"{left}, {right}"
            return f"{left} {expression.op} {right}"
        if isinstance(expression, ast.Assignment):
            return (
                f"{self.print_expression(expression.target)} {expression.op} "
                f"{self.print_expression(expression.value)}"
            )
        if isinstance(expression, ast.TernaryOp):
            return (
                f"({self.print_expression(expression.condition)}) ? "
                f"{self.print_expression(expression.if_true)} : "
                f"{self.print_expression(expression.if_false)}"
            )
        if isinstance(expression, ast.Call):
            arguments = ", ".join(self.print_expression(a) for a in expression.arguments)
            return f"{expression.callee}({arguments})"
        if isinstance(expression, ast.Index):
            return f"{self.print_expression(expression.base)}[{self.print_expression(expression.index)}]"
        if isinstance(expression, ast.Member):
            connector = "->" if expression.arrow else "."
            return f"{self.print_expression(expression.base)}{connector}{expression.member}"
        if isinstance(expression, ast.Cast):
            operand = self.print_expression(expression.operand)
            if isinstance(expression.operand, (ast.BinaryOp, ast.TernaryOp, ast.Assignment)):
                operand = f"({operand})"
            return f"({self._type_name(expression.target_type, expression.target_type_name)}){operand}"
        if isinstance(expression, ast.VectorLiteral):
            elements = ", ".join(self.print_expression(e) for e in expression.elements)
            return f"({self._type_name(expression.target_type, expression.target_type_name)})({elements})"
        if isinstance(expression, ast.SizeOf):
            return f"sizeof({expression.target_type_name})"
        if isinstance(expression, ast.InitializerList):
            elements = ", ".join(self.print_expression(e) for e in expression.elements)
            return "{" + elements + "}"
        return "/* ? */"


def print_source(unit: ast.TranslationUnit) -> str:
    """Render a translation unit as normalized OpenCL C source."""
    return SourcePrinter().print_translation_unit(unit)

