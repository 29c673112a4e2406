"""Semantic checks over the parsed AST.

The dominant cause of rejected GitHub content files in the paper is the use
of undeclared identifiers after device code has been isolated from its host
project (§4.1).  This module reproduces that check: every identifier used in
a function body must resolve to a parameter, a local declaration, a global
variable, a user-defined function, or an OpenCL built-in.  The shim header
(:mod:`repro.preprocess.shim`) reduces these failures exactly as in the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clc import ast_nodes as ast
from repro.clc.builtins import is_builtin, is_builtin_function
from repro.errors import SemanticError


@dataclass
class SemanticIssue:
    """One problem detected during semantic analysis."""

    kind: str  # "undeclared-identifier" | "undeclared-function" | "no-kernel" | ...
    message: str
    name: str = ""
    function: str = ""
    line: int = 0


@dataclass
class SemanticReport:
    """Aggregate result of checking a translation unit."""

    issues: list[SemanticIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    @property
    def undeclared_identifiers(self) -> list[str]:
        return [issue.name for issue in self.issues if issue.kind == "undeclared-identifier"]

    def raise_if_failed(self) -> None:
        if self.issues:
            first = self.issues[0]
            raise SemanticError(first.message, first.line or None)


class _Scope:
    """A lexical scope holding declared names."""

    def __init__(self, parent: "_Scope | None" = None):
        self._names: set[str] = set()
        self._parent = parent

    def declare(self, name: str) -> None:
        self._names.add(name)

    def is_declared(self, name: str) -> bool:
        if name in self._names:
            return True
        if self._parent is not None:
            return self._parent.is_declared(name)
        return False


class SemanticChecker:
    """Checks name resolution and basic call validity for a translation unit."""

    def __init__(self, unit: ast.TranslationUnit, require_kernel: bool = True):
        self._unit = unit
        self._require_kernel = require_kernel
        self._report = SemanticReport()
        self._function_names = {f.name for f in unit.functions}
        #: Arity of every user-defined function (``f(void)`` parses to an
        #: empty parameter list, so the count is exact).  Builtins are not
        #: checked — several are genuinely overloaded.
        self._function_arity = {f.name: len(f.parameters) for f in unit.functions}
        self._global_names = {g.declarator.name for g in unit.globals if g.declarator}
        self._typedef_names = {t.name for t in unit.typedefs}
        #: Whether the function being checked returns ``void``.
        self._returns_void = False

    def check(self) -> SemanticReport:
        """Run all checks and return the report."""
        if self._require_kernel and not self._unit.kernels:
            self._report.issues.append(
                SemanticIssue(kind="no-kernel", message="translation unit contains no __kernel function")
            )
        for function in self._unit.functions:
            if function.body is not None:
                self._check_function(function)
        return self._report

    # ------------------------------------------------------------------

    def _check_function(self, function: ast.FunctionDecl) -> None:
        self._returns_void = function.return_type.is_void
        scope = _Scope()
        for name in self._global_names:
            scope.declare(name)
        for parameter in function.parameters:
            if parameter.name:
                scope.declare(parameter.name)
        self._check_statement(function.body, scope, function.name)

    def _check_statement(self, statement: ast.Statement | None, scope: _Scope, function: str) -> None:
        if statement is None:
            return
        if isinstance(statement, ast.CompoundStmt):
            inner = _Scope(scope)
            for child in statement.statements:
                self._check_statement(child, inner, function)
        elif isinstance(statement, ast.DeclStmt):
            for declarator in statement.declarators:
                if declarator.array_size is not None:
                    self._check_expression(declarator.array_size, scope, function)
                if declarator.initializer is not None:
                    self._check_expression(declarator.initializer, scope, function)
                scope.declare(declarator.name)
        elif isinstance(statement, ast.ExprStmt):
            self._check_expression(statement.expression, scope, function)
        elif isinstance(statement, ast.IfStmt):
            self._check_expression(statement.condition, scope, function)
            self._check_statement(statement.then_branch, scope, function)
            self._check_statement(statement.else_branch, scope, function)
        elif isinstance(statement, ast.ForStmt):
            inner = _Scope(scope)
            self._check_statement(statement.init, inner, function)
            self._check_expression(statement.condition, inner, function)
            self._check_expression(statement.increment, inner, function)
            self._check_statement(statement.body, inner, function)
        elif isinstance(statement, ast.WhileStmt):
            self._check_expression(statement.condition, scope, function)
            self._check_statement(statement.body, scope, function)
        elif isinstance(statement, ast.DoWhileStmt):
            self._check_statement(statement.body, scope, function)
            self._check_expression(statement.condition, scope, function)
        elif isinstance(statement, ast.ReturnStmt):
            self._check_expression(statement.value, scope, function)
            if statement.value is not None and self._returns_void:
                # C11 6.8.6.4: a return with an expression shall not appear
                # in a function whose return type is void.
                self._report.issues.append(
                    SemanticIssue(
                        kind="void-return-value",
                        message=f"void function '{function}' should not return a value",
                        function=function,
                        line=statement.line,
                    )
                )
        elif isinstance(statement, ast.SwitchStmt):
            self._check_expression(statement.condition, scope, function)
            for case in statement.cases:
                self._check_expression(case.value, scope, function)
                inner = _Scope(scope)
                for child in case.body:
                    self._check_statement(child, inner, function)
        # Break/Continue/Empty have nothing to check.

    def _check_expression(self, expression: ast.Expression | None, scope: _Scope, function: str) -> None:
        if expression is None:
            return
        if isinstance(expression, ast.Identifier):
            name = expression.name
            if (
                not scope.is_declared(name)
                and name not in self._function_names
                and name not in self._typedef_names
                and not is_builtin(name)
            ):
                self._report.issues.append(
                    SemanticIssue(
                        kind="undeclared-identifier",
                        message=f"use of undeclared identifier '{name}'",
                        name=name,
                        function=function,
                        line=expression.line,
                    )
                )
        elif isinstance(expression, ast.Call):
            if expression.callee not in self._function_names and not is_builtin_function(
                expression.callee
            ):
                self._report.issues.append(
                    SemanticIssue(
                        kind="undeclared-function",
                        message=f"call to undeclared function '{expression.callee}'",
                        name=expression.callee,
                        function=function,
                        line=expression.line,
                    )
                )
            elif expression.callee in self._function_arity:
                expected = self._function_arity[expression.callee]
                supplied = len(expression.arguments)
                if supplied != expected:
                    self._report.issues.append(
                        SemanticIssue(
                            kind="wrong-arity",
                            message=(
                                f"call to '{expression.callee}' with {supplied} "
                                f"argument(s); it takes {expected}"
                            ),
                            name=expression.callee,
                            function=function,
                            line=expression.line,
                        )
                    )
            for argument in expression.arguments:
                self._check_expression(argument, scope, function)
        elif isinstance(expression, (ast.UnaryOp, ast.PostfixOp)):
            self._check_expression(expression.operand, scope, function)
        elif isinstance(expression, ast.BinaryOp):
            self._check_expression(expression.left, scope, function)
            self._check_expression(expression.right, scope, function)
        elif isinstance(expression, ast.Assignment):
            self._check_expression(expression.target, scope, function)
            self._check_expression(expression.value, scope, function)
        elif isinstance(expression, ast.TernaryOp):
            self._check_expression(expression.condition, scope, function)
            self._check_expression(expression.if_true, scope, function)
            self._check_expression(expression.if_false, scope, function)
        elif isinstance(expression, ast.Index):
            self._check_expression(expression.base, scope, function)
            self._check_expression(expression.index, scope, function)
        elif isinstance(expression, ast.Member):
            self._check_expression(expression.base, scope, function)
        elif isinstance(expression, (ast.Cast,)):
            self._check_expression(expression.operand, scope, function)
        elif isinstance(expression, ast.VectorLiteral):
            for element in expression.elements:
                self._check_expression(element, scope, function)
        elif isinstance(expression, ast.InitializerList):
            for element in expression.elements:
                self._check_expression(element, scope, function)
        # Literals and SizeOf need no checking.


def check(unit: ast.TranslationUnit, require_kernel: bool = True) -> SemanticReport:
    """Run semantic analysis on *unit* and return a :class:`SemanticReport`."""
    return SemanticChecker(unit, require_kernel=require_kernel).check()
