"""The loop parser: source text → :class:`repro.frontend.ir.Kernel`.

One parser ships: :class:`PythonAstParser` — zero-dependency, built on
:mod:`ast`; the corpus under ``frontend/corpus/`` is written for it.
:func:`parser_for` hands it every ``.py`` file, and any other suffix
raises :class:`~repro.errors.FrontendError`.

The parser extracts every function that wraps exactly one countable
innermost loop over ``range(start, stop, step)`` whose body is
straight-line assignments in the frontend fragment (see
:mod:`repro.frontend.ir`).  Statements outside the loop (accumulator
initialization, ``return``) are ignored: the frontend models the
steady-state loop, and live-in/live-out values get the simulation's
synthetic identities (:mod:`repro.sim.ops`).
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.errors import FrontendError
from repro.frontend.ir import (
    Assign,
    BinOp,
    Call,
    Expr,
    Kernel,
    LoopInfo,
    Name,
    Num,
    Subscript,
)

#: Trip count substituted for a symbolic range bound (``range(n)``).
#: Large enough to be paper-realistic, small enough to simulate fully.
DEFAULT_TRIP_COUNT = 120


def parser_for(path: str | Path) -> PythonAstParser:
    """The parser for a source file: Python's, for ``.py`` files."""
    suffix = Path(path).suffix
    if suffix not in PythonAstParser.suffixes:
        raise FrontendError(
            f"no parser claims {suffix!r} files (from {path}); "
            "only Python ('.py') sources are supported"
        )
    return PythonAstParser()


def parse_source(
    path: str | Path,
    *,
    kernel: str | None = None,
    default_trip_count: int = DEFAULT_TRIP_COUNT,
) -> list[Kernel]:
    """Parse a source file into kernels.

    Args:
        path: source file (``.py``; other suffixes are rejected).
        kernel: when given, return only the kernel with this name
            (raise :class:`~repro.errors.FrontendError` if absent).
        default_trip_count: trip count substituted for symbolic bounds.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FrontendError(f"cannot read {path}: {exc}") from exc
    parser = parser_for(path)
    kernels = parser.parse(
        text, source=str(path), default_trip_count=default_trip_count
    )
    if not kernels:
        raise FrontendError(
            f"{path}: no supported loop kernels found (need a function "
            "containing a 'for ... in range(...)' loop of straight-line "
            "assignments)"
        )
    if kernel is not None:
        matches = [k for k in kernels if k.name == kernel]
        if not matches:
            names = [k.name for k in kernels]
            raise FrontendError(
                f"{path}: no kernel named {kernel!r} (found: {names})"
            )
        return matches
    return kernels


# ----------------------------------------------------------------------
# Python ast parser
# ----------------------------------------------------------------------


class PythonAstParser:
    """The always-available parser, built on the stdlib :mod:`ast`.

    Supported fragment per function: any number of statements around a
    single ``for var in range(...)`` loop (nested loops recurse to the
    innermost); the innermost body must be assignments (``=`` or
    augmented ``+=`` etc.) whose targets are scalar names or affine
    array subscripts and whose expressions use names, numeric literals,
    affine subscript reads, ``+ - * /`` and ``sqrt``.
    """

    name = "python"
    suffixes = (".py",)

    def parse(
        self,
        text: str,
        *,
        source: str = "<string>",
        default_trip_count: int = DEFAULT_TRIP_COUNT,
    ) -> list[Kernel]:
        try:
            module = ast.parse(text, filename=source)
        except SyntaxError as exc:
            raise FrontendError(f"{source}: not valid Python: {exc}") from exc
        kernels: list[Kernel] = []
        for stmt in module.body:
            if not isinstance(stmt, ast.FunctionDef):
                continue
            loop = self._find_loop(stmt, source)
            if loop is None:
                continue
            kernels.append(
                self._kernel_of(stmt, loop, source, default_trip_count)
            )
        return kernels

    # -- loop discovery -------------------------------------------------

    def _find_loop(
        self, func: ast.FunctionDef, source: str
    ) -> ast.For | None:
        """The function's innermost loop, or None if it has no loop."""
        loops = [s for s in func.body if isinstance(s, ast.For)]
        if not loops:
            return None
        if len(loops) > 1:
            raise FrontendError(
                f"{source}:{func.name}: more than one top-level loop; "
                "the frontend models a single innermost loop per kernel"
            )
        loop = loops[0]
        # Recurse to the innermost loop of a perfect-looking nest.
        while True:
            inner = [s for s in loop.body if isinstance(s, ast.For)]
            if not inner:
                return loop
            if len(inner) > 1:
                raise FrontendError(
                    f"{source}:{func.name}: sibling nested loops are "
                    "outside the supported fragment"
                )
            loop = inner[0]

    def _kernel_of(
        self,
        func: ast.FunctionDef,
        loop: ast.For,
        source: str,
        default_trip_count: int,
    ) -> Kernel:
        where = f"{source}:{func.name}"
        info = self._loop_info(loop, where, default_trip_count)
        body: list[Assign] = []
        for stmt in loop.body:
            body.append(self._statement(stmt, where, info.var))
        if not body:
            raise FrontendError(f"{where}: empty loop body")
        params = tuple(arg.arg for arg in func.args.args)
        return Kernel(
            name=func.name, params=params, loop=info, body=body, source=source
        )

    def _loop_info(
        self, loop: ast.For, where: str, default_trip_count: int
    ) -> LoopInfo:
        if not isinstance(loop.target, ast.Name):
            raise FrontendError(f"{where}: loop target must be a simple name")
        var = loop.target.id
        call = loop.iter
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "range"
            and not call.keywords
            and 1 <= len(call.args) <= 3
        ):
            raise FrontendError(
                f"{where}: only 'for {var} in range(...)' loops are "
                "countable; other iterables are outside the fragment"
            )
        args = call.args
        start_node = args[0] if len(args) >= 2 else None
        stop_node = args[1] if len(args) >= 2 else args[0]
        step_node = args[2] if len(args) == 3 else None

        start = 0 if start_node is None else self._int_literal(
            start_node, where, "range start"
        )
        step = 1 if step_node is None else self._int_literal(
            step_node, where, "range step"
        )
        if step == 0:
            raise FrontendError(f"{where}: range step must be non-zero")

        symbolic: str | None = None
        if isinstance(stop_node, ast.Name):
            symbolic = stop_node.id
            trip = default_trip_count
        else:
            stop = self._int_literal(stop_node, where, "range stop")
            trip = len(range(start, stop, step))
        if trip < 1:
            raise FrontendError(
                f"{where}: loop executes no iterations "
                f"(range start={start}, step={step})"
            )
        return LoopInfo(
            var=var,
            start=start,
            step=step,
            trip_count=trip,
            symbolic_bound=symbolic,
        )

    def _int_literal(self, node: ast.expr, where: str, what: str) -> int:
        value = self._const_int(node)
        if value is None:
            raise FrontendError(
                f"{where}: {what} must be an integer literal "
                f"(got {ast.dump(node)})"
            )
        return value

    def _const_int(self, node: ast.expr) -> int | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, int)
        ):
            return -node.operand.value
        return None

    # -- statements -----------------------------------------------------

    def _statement(self, stmt: ast.stmt, where: str, var: str) -> Assign:
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1:
                raise FrontendError(
                    f"{where}:{stmt.lineno}: chained assignment is outside "
                    "the supported fragment"
                )
            target = self._target(stmt.targets[0], where, var)
            return Assign(
                target=target, expr=self._expr(stmt.value, where, var)
            )
        if isinstance(stmt, ast.AugAssign):
            target = self._target(stmt.target, where, var)
            op = self._operator(stmt.op, where, stmt.lineno)
            read: Expr
            if isinstance(target, Name):
                read = Name(target.name)
            else:
                read = Subscript(target.array, target.coeff, target.offset)
            return Assign(
                target=target,
                expr=BinOp(
                    op=op, left=read, right=self._expr(stmt.value, where, var)
                ),
            )
        raise FrontendError(
            f"{where}:{stmt.lineno}: only straight-line assignments are "
            f"supported in the loop body (got {type(stmt).__name__})"
        )

    def _target(
        self, node: ast.expr, where: str, var: str
    ) -> Name | Subscript:
        if isinstance(node, ast.Name):
            return Name(node.id)
        if isinstance(node, ast.Subscript):
            return self._subscript(node, where, var)
        raise FrontendError(
            f"{where}:{node.lineno}: assignment target must be a scalar "
            "name or an array subscript"
        )

    # -- expressions ----------------------------------------------------

    def _expr(self, node: ast.expr, where: str, var: str) -> Expr:
        if isinstance(node, ast.Name):
            return Name(node.id)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                raise FrontendError(
                    f"{where}:{node.lineno}: only numeric literals are "
                    f"supported (got {node.value!r})"
                )
            return Num(float(node.value))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            operand = self._expr(node.operand, where, var)
            if isinstance(operand, Num):
                return Num(-operand.value)
            return BinOp(op="-", left=Num(0.0), right=operand)
        if isinstance(node, ast.Subscript):
            return self._subscript(node, where, var)
        if isinstance(node, ast.BinOp):
            op = self._operator(node.op, where, node.lineno)
            left = self._expr(node.left, where, var)
            right = self._expr(node.right, where, var)
            if op == "/" and isinstance(right, Num) and right.value == 0:
                raise FrontendError(
                    f"{where}:{node.lineno}: division by the literal zero"
                )
            return BinOp(op=op, left=left, right=right)
        if isinstance(node, ast.Call):
            func = node.func
            fname: str | None = None
            if isinstance(func, ast.Name):
                fname = func.id
            elif isinstance(func, ast.Attribute):
                fname = func.attr
            if fname != "sqrt" or len(node.args) != 1 or node.keywords:
                raise FrontendError(
                    f"{where}:{node.lineno}: only sqrt(x) calls are "
                    "supported in loop bodies"
                )
            return Call(func="sqrt", arg=self._expr(node.args[0], where, var))
        raise FrontendError(
            f"{where}:{node.lineno}: unsupported expression "
            f"{type(node).__name__}"
        )

    def _operator(self, op: ast.operator, where: str, lineno: int) -> str:
        if isinstance(op, ast.Add):
            return "+"
        if isinstance(op, ast.Sub):
            return "-"
        if isinstance(op, ast.Mult):
            return "*"
        if isinstance(op, ast.Div):
            return "/"
        raise FrontendError(
            f"{where}:{lineno}: operator {type(op).__name__} is outside "
            "the supported fragment (+ - * / and sqrt)"
        )

    # -- subscripts -----------------------------------------------------

    def _subscript(
        self, node: ast.Subscript, where: str, var: str
    ) -> Subscript:
        if not isinstance(node.value, ast.Name):
            raise FrontendError(
                f"{where}:{node.lineno}: subscripted value must be a "
                "plain array name"
            )
        array = node.value.id
        coeff, offset = self._linear(node.slice, where, var)
        return Subscript(array=array, coeff=coeff, offset=offset)

    def _linear(
        self, node: ast.expr, where: str, var: str
    ) -> tuple[int, int]:
        """Evaluate an index expression as ``(coeff, offset)`` over the
        induction variable: ``coeff * var + offset``."""
        lineno = getattr(node, "lineno", 0)
        if isinstance(node, ast.Name):
            if node.id != var:
                raise FrontendError(
                    f"{where}:{lineno}: subscript uses {node.id!r}, not "
                    f"the induction variable {var!r}; symbolic offsets "
                    "are outside the supported fragment"
                )
            return (1, 0)
        literal = self._const_int(node)
        if literal is not None:
            return (0, literal)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            coeff, offset = self._linear(node.operand, where, var)
            return (-coeff, -offset)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Add):
                lc, lo = self._linear(node.left, where, var)
                rc, ro = self._linear(node.right, where, var)
                return (lc + rc, lo + ro)
            if isinstance(node.op, ast.Sub):
                lc, lo = self._linear(node.left, where, var)
                rc, ro = self._linear(node.right, where, var)
                return (lc - rc, lo - ro)
            if isinstance(node.op, ast.Mult):
                lc, lo = self._linear(node.left, where, var)
                rc, ro = self._linear(node.right, where, var)
                if lc != 0 and rc != 0:
                    raise FrontendError(
                        f"{where}:{lineno}: non-affine subscript "
                        "(product of two index terms)"
                    )
                if lc == 0:
                    return (lo * rc, lo * ro)
                return (ro * lc, ro * lo)
        raise FrontendError(
            f"{where}:{lineno}: subscript must be affine in the loop "
            f"variable (got {ast.dump(node)})"
        )
