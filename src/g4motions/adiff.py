"""Closed-form fields of the chart point and their symbolic first partials.

Every scalar field tabulated in the catalog (Killing frames, tetrads,
potentials) is a closed form built from constants, the four chart
coordinates, ``+ - * /`` and ``exp``/``sin``/``cos``.  ``FieldExpr`` captures
exactly that function class as a tiny expression tree, and ``diff`` builds
the exact partial along one chart axis as another such tree (constants fold,
zeros vanish, and a partial refers back to the nodes of its field where the
chain and product rules reuse them).

``evaluate`` is the one evaluator, for values and partials alike: it
evaluates each distinct node of a list of trees once per call and drops
each value after its last use.  The independent check on the partials is
the central finite-difference oracle of the verification suite
(``checks.check_fd_oracle``).  A small source-level compiler turns expression
trees into straight-line plain-``math`` functions (one temporary per
distinct subtree) for the trajectory integrator's hot loop.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

CHART_DIM = 4

__all__ = [
    "CHART_DIM",
    "DomainError",
    "FieldExpr",
    "Const",
    "Coord",
    "coords",
    "as_expr",
    "exp",
    "sin",
    "cos",
    "as_point",
    "evaluate",
    "compile_values",
    "gradient_exprs",
]

_SINGULAR = 1e-14
_SINGULAR_MSG = "division by a (near-)zero denominator"


class DomainError(ValueError):
    """A field was evaluated at a singular point (vanishing denominator)."""


def as_point(u) -> np.ndarray:
    """Coerce to a chart point: shape (4,) float array with finite entries."""
    pt = np.asarray(u, dtype=float)
    if pt.shape != (CHART_DIM,):
        raise ValueError(f"chart point must have shape (4,), got {pt.shape}")
    if not np.all(np.isfinite(pt)):
        raise ValueError("chart point has non-finite components")
    return pt


def _guard_denominator(value):
    if np.any(np.abs(value) < _SINGULAR):
        raise DomainError(_SINGULAR_MSG)


def exp(x):
    if isinstance(x, FieldExpr):
        return _unary(Exp, x, math.exp)
    return np.exp(x)


def sin(x):
    if isinstance(x, FieldExpr):
        return _unary(Sin, x, math.sin)
    return np.sin(x)


def cos(x):
    if isinstance(x, FieldExpr):
        return _unary(Cos, x, math.cos)
    return np.cos(x)


# --------------------------------------------------------------------------
# Expression trees
# --------------------------------------------------------------------------


class FieldExpr:
    """Closed-form scalar field of the chart point u = (u1, u2, u3, u4).

    A node names its child nodes in ``operands`` (empty for a leaf).
    ``eval(u, *values)`` receives the chart point(s) ``u``, of shape (4,) or
    (4, N), and the values of the operands in order; ``evaluate`` supplies
    them.
    """

    __slots__ = ()
    operands: tuple = ()

    def eval(self, u, *values):
        raise NotImplementedError

    def diff(self, axis: int) -> "FieldExpr":
        raise NotImplementedError

    def __call__(self, u):
        return evaluate([self], u)[0]

    # Operator sugar: every overload routes through the folding constructors
    # so that catalog tables stay small trees (zeros vanish, constants fold).
    def __add__(self, other):
        return _add(self, as_expr(other))

    def __radd__(self, other):
        return _add(as_expr(other), self)

    def __sub__(self, other):
        return _sub(self, as_expr(other))

    def __rsub__(self, other):
        return _sub(as_expr(other), self)

    def __mul__(self, other):
        return _mul(self, as_expr(other))

    def __rmul__(self, other):
        return _mul(as_expr(other), self)

    def __truediv__(self, other):
        return _div(self, as_expr(other))

    def __rtruediv__(self, other):
        return _div(as_expr(other), self)

    def __neg__(self):
        return _neg(self)


class Const(FieldExpr):
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = float(c)

    def eval(self, u):
        return self.c  # numpy broadcasts it against the batch

    def diff(self, axis):
        return ZERO

    def __repr__(self):
        return repr(self.c)


class Coord(FieldExpr):
    __slots__ = ("axis",)

    def __init__(self, axis: int):
        if not 0 <= axis < CHART_DIM:
            raise ValueError("coordinate axis out of range")
        self.axis = axis

    def eval(self, u):
        return u[self.axis]

    def diff(self, axis):
        return ONE if axis == self.axis else ZERO

    def __repr__(self):
        return f"u{self.axis + 1}"


class _Op(FieldExpr):
    __slots__ = ("operands",)

    def __init__(self, *operands):
        self.operands = operands


class Add(_Op):
    __slots__ = ()

    def eval(self, u, a, b):
        return a + b

    def diff(self, axis):
        a, b = self.operands
        return _add(a.diff(axis), b.diff(axis))

    def __repr__(self):
        return "({!r} + {!r})".format(*self.operands)


class Sub(_Op):
    __slots__ = ()

    def eval(self, u, a, b):
        return a - b

    def diff(self, axis):
        a, b = self.operands
        return _sub(a.diff(axis), b.diff(axis))

    def __repr__(self):
        return "({!r} - {!r})".format(*self.operands)


class Mul(_Op):
    __slots__ = ()

    def eval(self, u, a, b):
        return a * b

    def diff(self, axis):
        a, b = self.operands
        return _add(_mul(a.diff(axis), b), _mul(a, b.diff(axis)))

    def __repr__(self):
        return "({!r} * {!r})".format(*self.operands)


class Div(_Op):
    __slots__ = ()

    def eval(self, u, a, b):
        _guard_denominator(b)
        return a / b

    def diff(self, axis):
        # (a/b)' = a'/b - a b' / b^2
        a, b = self.operands
        return _sub(_div(a.diff(axis), b), _div(_mul(a, b.diff(axis)), _mul(b, b)))

    def __repr__(self):
        return "({!r} / {!r})".format(*self.operands)


class Neg(_Op):
    __slots__ = ()

    def eval(self, u, a):
        return -a

    def diff(self, axis):
        return _neg(self.operands[0].diff(axis))

    def __repr__(self):
        return f"(-{self.operands[0]!r})"


class Exp(_Op):
    __slots__ = ()

    def eval(self, u, a):
        return np.exp(a)

    def diff(self, axis):
        return _mul(self.operands[0].diff(axis), self)

    def __repr__(self):
        return f"exp({self.operands[0]!r})"


class Sin(_Op):
    __slots__ = ()

    def eval(self, u, a):
        return np.sin(a)

    def diff(self, axis):
        a = self.operands[0]
        return _mul(a.diff(axis), Cos(a))

    def __repr__(self):
        return f"sin({self.operands[0]!r})"


class Cos(_Op):
    __slots__ = ()

    def eval(self, u, a):
        return np.cos(a)

    def diff(self, axis):
        a = self.operands[0]
        return _neg(_mul(a.diff(axis), Sin(a)))

    def __repr__(self):
        return f"cos({self.operands[0]!r})"


ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(x) -> FieldExpr:
    if isinstance(x, FieldExpr):
        return x
    return Const(x)


def coords() -> tuple[Coord, Coord, Coord, Coord]:
    """The four chart coordinate expressions (u1, u2, u3, u4)."""
    return Coord(0), Coord(1), Coord(2), Coord(3)


# The folding constructors run once per node of every symbolic partial, so
# they test ``type(x) is Const`` directly rather than through a helper.


def _add(a, b):
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.c + b.c)
        if a.c == 0.0:
            return b
    elif type(b) is Const and b.c == 0.0:
        return a
    return Add(a, b)


def _sub(a, b):
    if type(b) is Const:
        if type(a) is Const:
            return Const(a.c - b.c)
        if b.c == 0.0:
            return a
    elif type(a) is Const and a.c == 0.0:
        return _neg(b)
    return Sub(a, b)


def _mul(a, b):
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.c * b.c)
        c, other = a.c, b
    elif type(b) is Const:
        c, other = b.c, a
    else:
        return Mul(a, b)
    if c == 0.0:
        return ZERO
    if c == 1.0:
        return other
    if c == -1.0:
        return _neg(other)
    return Mul(a, b)


def _div(a, b):
    if type(b) is Const:
        if b.c == 0.0:
            raise DomainError("division by the constant zero field")
        return _mul(a, Const(1.0 / b.c))
    if type(a) is Const and a.c == 0.0:
        return ZERO
    return Div(a, b)


def _neg(a):
    if type(a) is Const:
        return Const(-a.c)
    if type(a) is Neg:
        return a.operands[0]
    return Neg(a)


def _unary(node, a, fn):
    if type(a) is Const:
        return Const(fn(a.c))
    return node(a)


# --------------------------------------------------------------------------
# Public evaluation entry points
# --------------------------------------------------------------------------


def evaluate(exprs: Sequence[FieldExpr], u) -> list:
    """Values of ``exprs`` at the chart point(s) ``u``, in order.

    ``u`` may be a single point of shape (4,) or a batch of shape (4, N);
    each value is then a float or an (N,) array (a constant stays a float
    either way).  Every distinct node object reachable from ``exprs`` is
    evaluated once per call, so trees that share nodes (a table's entries
    and their ``gradient_exprs``) share the values, and a value is dropped
    as soon as its last reader has run.
    """
    u = np.asarray(u, dtype=float)
    uses: dict[int, int] = {}  # readers per node; a root counts as one more
    order: list[FieldExpr] = []  # operands before the nodes that read them

    def visit(e):
        key = id(e)
        n = uses.get(key)
        if n is None:
            uses[key] = 1
            for o in e.operands:
                visit(o)
            order.append(e)
        else:
            uses[key] = n + 1

    for e in exprs:
        visit(e)
    values: dict[int, object] = {}
    for e in order:
        ops = e.operands
        if not ops:
            values[id(e)] = e.eval(u)
            continue
        args = []
        for o in ops:
            key = id(o)
            args.append(values[key])
            n = uses[key] - 1
            if n:
                uses[key] = n
            else:
                del values[key]
        values[id(e)] = e.eval(u, *args)
    return [values[id(e)] for e in exprs]


def gradient_exprs(f: FieldExpr) -> list[FieldExpr]:
    """Symbolic partials [df/du1, ..., df/du4]."""
    return [f.diff(i) for i in range(CHART_DIM)]


_COORD_NAMES = ("u1", "u2", "u3", "u4")
_INFIX = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_CALLS = {Neg: "-", Exp: "exp", Sin: "sin", Cos: "cos"}
_COMMUTATIVE = (Add, Mul)


class _SSA:
    """Hash-consing emitter: one temporary per distinct subtree.

    Leaves render inline (coordinates by name, constants as literals).  A
    node's key is its type plus the names of its operands, so structurally
    equal subtrees built as separate objects still share one temporary.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.temps: dict[tuple, str] = {}
        self.by_id: dict[int, str] = {}  # shared node objects: skip the re-walk

    def name(self, e: FieldExpr) -> str:
        hit = self.by_id.get(id(e))
        if hit is not None:
            return hit
        if isinstance(e, Const):
            out = repr(e.c) if e.c >= 0 else f"({e.c!r})"
        elif isinstance(e, Coord):
            out = _COORD_NAMES[e.axis]
        else:
            kind = type(e)
            if kind in _INFIX:
                a, b = map(self.name, e.operands)
                key, src = (kind, a, b), f"{a} {_INFIX[kind]} {b}"
                if kind in _COMMUTATIVE and b < a:
                    key = (kind, b, a)  # IEEE a + b == b + a and a * b == b * a exactly
            elif kind in _CALLS:
                a = self.name(e.operands[0])
                key, src = (kind, a), f"{_CALLS[kind]}({a})"
            else:
                raise TypeError(f"cannot compile {kind.__name__}")
            out = self.temps.get(key)
            if out is None:
                out = self.temps[key] = f"t{len(self.temps)}"
                if kind is Div:
                    self.lines.append(
                        f"if {-_SINGULAR!r} < {b} < {_SINGULAR!r}: raise DomainError(_SINGULAR_MSG)"
                    )
                self.lines.append(f"{out} = {src}")
        self.by_id[id(e)] = out
        return out


def compile_values(
    exprs: Sequence[FieldExpr],
    extra_args: Sequence[str] = (),
    epilogue: Callable | None = None,
) -> Callable:
    """Compile expressions into one straight-line ``math`` function of
    ``(u1, u2, u3, u4, *extra_args)`` returning a tuple of floats.

    Every distinct subtree of the folded trees is evaluated once per call
    (common-subexpression elimination into SSA temporaries), and every
    denominator is guarded as in ``Div.eval``: a magnitude below 1e-14 raises
    ``DomainError``.  Without ``epilogue`` the function returns the values
    of ``exprs``.  Otherwise ``epilogue(names)`` receives, per expression,
    the source of its value (a temporary or a literal), or ``None`` where
    the expression folded to the constant 0, and returns ``(lines,
    outputs)``: statements appended to the body, which may also read
    ``extra_args``, and the source of each returned value.  Compiled output
    is cross-checked against ``evaluate`` in the test suite.
    """
    ssa = _SSA()
    names = [ssa.name(e) for e in exprs]
    if epilogue is None:
        lines, outputs = [], names
    else:
        lines, outputs = epilogue(
            [None if type(e) is Const and e.c == 0.0 else n for e, n in zip(exprs, names)]
        )
    args = ", ".join((*_COORD_NAMES, *extra_args))
    body = "".join(f"    {line}\n" for line in (*ssa.lines, *lines))
    src = f"def _kernel({args}):\n{body}    return ({', '.join(outputs)},)\n"
    namespace = {
        "exp": math.exp,
        "sin": math.sin,
        "cos": math.cos,
        "DomainError": DomainError,
        "_SINGULAR_MSG": _SINGULAR_MSG,
    }
    exec(compile(src, "<g4motions-compiled>", "exec"), namespace)
    return namespace.pop("_kernel")  # no function <-> globals cycle: freed by refcount
