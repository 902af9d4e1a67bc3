"""K-rules: the PR-5 zero-allocation arena discipline in kernel files.

The scope is the per-round ``while`` loops of the vectorized kernels in
``src/repro/fast/*.py`` — the loops that run thousands of iterations per
batch and whose steady state PR 5 made allocation-free:

- **K201** — an allocating numpy call (``zeros``/``empty``/``full``/
  ``arange``/``concatenate``/``stack``/... or the ``.copy()``/
  ``.astype()`` methods) lexically inside a round loop.  Temporaries
  belong in :func:`repro.fast.arena.Arena.buf` with ``out=`` writes.
- **K202** — a name bound to an arena plane (``x = arena.buf(...)``)
  rebound inside a round loop to anything other than a row-slice of a
  plane or the result of :func:`~repro.fast.arena.compact_rows`.
  Rebinding detaches the plane from its recycled storage (the next
  ``buf()`` call aliases stale state) and puts the allocation back on
  the hot path; planes mutate via masked in-place writes.
- **K203** — a ``ufunc.at`` scatter (``np.add.at(c, i, 1)``) anywhere in
  a kernel file whose value operand is a Python literal.  numpy only
  takes the indexed fast loop when the operand already has the target's
  dtype; a literal into an int32 (or any non-default dtype) target sends
  every call down the casting slow path.

K201 and K202 are lexical: calls inside nested function *definitions*
(the ``finalize_rows``/``compress`` closures, defined once and invoked on
compaction events, not per round) are out of scope by construction.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintkit.engine import Finding

#: numpy module-level constructors/copies that allocate a fresh array.
_ALLOC_FUNCS = {
    "zeros",
    "empty",
    "ones",
    "full",
    "zeros_like",
    "empty_like",
    "ones_like",
    "full_like",
    "arange",
    "linspace",
    "eye",
    "identity",
    "array",
    "copy",
    "concatenate",
    "stack",
    "vstack",
    "hstack",
    "dstack",
    "column_stack",
    "tile",
    "repeat",
    "fromiter",
    "meshgrid",
}

#: Allocating *methods* on any object (conservative: ``.copy()`` and
#: ``.astype()`` always materialize fresh storage in the kernels).
_ALLOC_METHODS = {"copy", "astype"}

#: Names whose module-level aliases denote numpy.
_NUMPY_ALIASES = {"np", "numpy"}

#: RHS call names through which plane rebinding is legitimate.
_REBIND_FUNCS = {"compact_rows"}


def _numpy_alloc_name(func: ast.AST) -> str | None:
    """``np.zeros``-style allocating attribute, or None."""
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in _NUMPY_ALIASES
        and func.attr in _ALLOC_FUNCS
    ):
        return func.attr
    return None


def _arena_plane_names(func: ast.FunctionDef) -> set[str]:
    """Names assigned from ``<arena>.buf(...)`` / ``<arena>.full(...)``."""
    planes: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        # Unwrap conditional expressions: ``x = arena.buf(...) if c else None``.
        candidates = [value]
        if isinstance(value, ast.IfExp):
            candidates = [value.body, value.orelse]
        if not any(
            isinstance(cand, ast.Call)
            and isinstance(cand.func, ast.Attribute)
            and cand.func.attr in ("buf", "full")
            # np.full(...) is an allocation, not an arena plane: the
            # receiver must be an arena object, not the numpy module.
            and not (
                isinstance(cand.func.value, ast.Name)
                and cand.func.value.id in _NUMPY_ALIASES
            )
            for cand in candidates
        ):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                planes.add(target.id)
    return planes


def _allowed_rebind(value: ast.AST) -> bool:
    """RHS forms that keep a plane attached to recycled storage."""
    if isinstance(value, ast.Subscript):  # row slice: coins[:m]
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        return name in _REBIND_FUNCS or name in ("buf", "full")
    return False


class _LoopScanner(ast.NodeVisitor):
    """Scans one round-loop body, skipping nested function definitions."""

    def __init__(self, outer: "_KernelVisitor") -> None:
        self.outer = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # closures are defined once, not executed per round

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        attr = _numpy_alloc_name(node.func)
        if attr is not None:
            self.outer.emit(
                node,
                "K201",
                f"np.{attr}(...) allocates inside a per-round loop; use an "
                "arena.buf(...) temporary with out= writes",
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _ALLOC_METHODS
        ):
            self.outer.emit(
                node,
                "K201",
                f".{node.func.attr}(...) materializes a fresh array inside "
                "a per-round loop; reuse an arena buffer or hoist it",
            )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        planes = self.outer.current_planes
        targets: list[tuple[ast.expr, ast.AST]] = []
        for target in node.targets:
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                targets.extend(zip(target.elts, node.value.elts))
            else:
                targets.append((target, node.value))
        for target, value in targets:
            if (
                isinstance(target, ast.Name)
                and target.id in planes
                and not _allowed_rebind(value)
            ):
                self.outer.emit(
                    node,
                    "K202",
                    f"arena plane {target.id!r} rebound inside a per-round "
                    "loop; mutate it in place (np.copyto/out=/index "
                    "assignment) or rebind only via compact_rows/slicing",
                )
        self.generic_visit(node)


class _KernelVisitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []
        self._func_stack: list[str] = []
        self._plane_stack: list[set[str]] = []
        self._lines: list[str] = []

    @property
    def current_planes(self) -> set[str]:
        return self._plane_stack[-1] if self._plane_stack else set()

    def emit(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        text = self._lines[line - 1].strip() if line <= len(self._lines) else ""
        self.findings.append(
            Finding(
                rule=rule,
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                message=message,
                func=self._func_stack[-1] if self._func_stack else "<module>",
                text=text,
                end_line=getattr(node, "end_lineno", line) or line,
            )
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node.name)
        self._plane_stack.append(_arena_plane_names(node))
        self.generic_visit(node)
        self._plane_stack.pop()
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_While(self, node: ast.While) -> None:
        scanner = _LoopScanner(self)
        for child in node.body:
            scanner.visit(child)
        # Nested while loops inside the body were already scanned by the
        # outer pass; don't double-report through generic_visit.


def _is_literal(node: ast.AST) -> bool:
    """A Python number literal, optionally signed (``1``, ``-1``, ``0.5``)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (bool, int, float, complex)
    )


class _AtOperandVisitor(_KernelVisitor):
    """K203 over the whole module: loops, closures and straight-line code."""

    def visit_While(self, node: ast.While) -> None:
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "at"
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in _NUMPY_ALIASES
            and len(node.args) >= 3
            and _is_literal(node.args[2])
        ):
            self.emit(
                node,
                "K203",
                f"np.{func.value.attr}.at(...) with a Python-literal operand "
                "takes numpy's casting slow path; pass a scalar of the "
                "target's dtype (e.g. np.int32(1))",
            )
        self.generic_visit(node)


def kernel_findings(
    tree: ast.Module, path: str, source: str | None = None
) -> Iterator[Finding]:
    """All K-rule findings for one parsed kernel module."""
    lines = source.splitlines() if source is not None else []
    findings: list[Finding] = []
    for visitor in (_KernelVisitor(path), _AtOperandVisitor(path)):
        visitor._lines = lines
        visitor.visit(tree)
        findings.extend(visitor.findings)
    return iter(findings)
