"""Forward-mode first derivatives for the catalog's closed-form fields.

Every scalar field tabulated in the catalog (Killing frames, tetrads,
potentials) is a closed form built from constants, the four chart
coordinates, ``+ - * /`` and ``exp``/``sin``/``cos``.  ``FieldExpr`` captures
exactly that function class as a tiny expression tree.  ``Jet1`` carries a
value together with its exact 4-gradient through arithmetic (dual numbers
with a fixed 4-slot gradient; the chart dimension is always 4, so no tape or
expression graph is needed).

A central finite-difference oracle is provided so that every gradient used
downstream can be compared against an independent estimate, and a small
source-level compiler turns expression trees into straight-line
plain-``math`` functions (one temporary per distinct subtree) for the
trajectory integrator's hot loop.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

CHART_DIM = 4

__all__ = [
    "CHART_DIM",
    "DomainError",
    "Jet1",
    "FieldExpr",
    "Const",
    "Coord",
    "coords",
    "as_expr",
    "exp",
    "sin",
    "cos",
    "as_point",
    "eval_jet",
    "finite_diff_gradient",
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


class Jet1:
    """A value plus its exact 4-gradient.

    ``value`` is a float (or an (N,) array for batched evaluation) and
    ``grad`` a (4,) array (or (4, N)).  Arithmetic follows the usual dual
    number rules, so gradients obey the chain and product rules exactly.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value = value
        self.grad = grad

    @classmethod
    def variable(cls, value, axis: int) -> "Jet1":
        value = np.asarray(value, dtype=float)
        grad = np.zeros((CHART_DIM,) + value.shape)
        grad[axis] = 1.0
        return cls(value if value.shape else float(value), grad)

    @classmethod
    def const(cls, value, like: "Jet1 | None" = None) -> "Jet1":
        grad = np.zeros(CHART_DIM) if like is None else np.zeros_like(like.grad)
        return cls(value, grad)

    def __add__(self, other):
        if isinstance(other, Jet1):
            return Jet1(self.value + other.value, self.grad + other.grad)
        return Jet1(self.value + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet1):
            return Jet1(self.value - other.value, self.grad - other.grad)
        return Jet1(self.value - other, self.grad)

    def __rsub__(self, other):
        return Jet1(other - self.value, -self.grad)

    def __mul__(self, other):
        if isinstance(other, Jet1):
            return Jet1(
                self.value * other.value,
                self.grad * other.value + self.value * other.grad,
            )
        return Jet1(self.value * other, self.grad * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet1):
            _guard_denominator(other.value)
            inv = 1.0 / other.value
            return Jet1(
                self.value * inv,
                (self.grad - self.value * inv * other.grad) * inv,
            )
        _guard_denominator(other)
        return Jet1(self.value / other, self.grad / other)

    def __rtruediv__(self, other):
        _guard_denominator(self.value)
        val = other / self.value
        return Jet1(val, -val / self.value * self.grad)

    def __neg__(self):
        return Jet1(-self.value, -self.grad)

    def __repr__(self):
        return f"Jet1({self.value!r}, grad={self.grad!r})"


def _guard_denominator(value):
    if np.any(np.abs(value) < _SINGULAR):
        raise DomainError(_SINGULAR_MSG)


def exp(x):
    if isinstance(x, Jet1):
        v = np.exp(x.value)
        return Jet1(v, v * x.grad)
    if isinstance(x, FieldExpr):
        return _unary(Exp, x, math.exp)
    return np.exp(x)


def sin(x):
    if isinstance(x, Jet1):
        return Jet1(np.sin(x.value), np.cos(x.value) * x.grad)
    if isinstance(x, FieldExpr):
        return _unary(Sin, x, math.sin)
    return np.sin(x)


def cos(x):
    if isinstance(x, Jet1):
        return Jet1(np.cos(x.value), -np.sin(x.value) * x.grad)
    if isinstance(x, FieldExpr):
        return _unary(Cos, x, math.cos)
    return np.cos(x)


# --------------------------------------------------------------------------
# Expression trees
# --------------------------------------------------------------------------


class FieldExpr:
    """Closed-form scalar field of the chart point u = (u1, u2, u3, u4)."""

    __slots__ = ()

    def eval(self, u):
        raise NotImplementedError

    def jet(self, u) -> Jet1:
        raise NotImplementedError

    def diff(self, axis: int) -> "FieldExpr":
        raise NotImplementedError

    def __call__(self, u):
        return self.eval(np.asarray(u, dtype=float))

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
        if u.ndim == 1:
            return self.c
        return np.full(u.shape[1], self.c)

    def jet(self, u):
        if u.ndim == 1:
            return Jet1(self.c, np.zeros(CHART_DIM))
        return Jet1(np.full(u.shape[1], self.c), np.zeros((CHART_DIM, u.shape[1])))

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

    def jet(self, u):
        return Jet1.variable(u[self.axis], self.axis)

    def diff(self, axis):
        return ONE if axis == self.axis else ZERO

    def __repr__(self):
        return f"u{self.axis + 1}"


class _Binary(FieldExpr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class Add(_Binary):
    __slots__ = ()

    def eval(self, u):
        return self.a.eval(u) + self.b.eval(u)

    def jet(self, u):
        return self.a.jet(u) + self.b.jet(u)

    def diff(self, axis):
        return _add(self.a.diff(axis), self.b.diff(axis))

    def __repr__(self):
        return f"({self.a!r} + {self.b!r})"


class Sub(_Binary):
    __slots__ = ()

    def eval(self, u):
        return self.a.eval(u) - self.b.eval(u)

    def jet(self, u):
        return self.a.jet(u) - self.b.jet(u)

    def diff(self, axis):
        return _sub(self.a.diff(axis), self.b.diff(axis))

    def __repr__(self):
        return f"({self.a!r} - {self.b!r})"


class Mul(_Binary):
    __slots__ = ()

    def eval(self, u):
        return self.a.eval(u) * self.b.eval(u)

    def jet(self, u):
        return self.a.jet(u) * self.b.jet(u)

    def diff(self, axis):
        return _add(
            _mul(self.a.diff(axis), self.b),
            _mul(self.a, self.b.diff(axis)),
        )

    def __repr__(self):
        return f"({self.a!r} * {self.b!r})"


class Div(_Binary):
    __slots__ = ()

    def eval(self, u):
        den = self.b.eval(u)
        _guard_denominator(den)
        return self.a.eval(u) / den

    def jet(self, u):
        return self.a.jet(u) / self.b.jet(u)

    def diff(self, axis):
        # (a/b)' = a'/b - a b' / b^2
        return _sub(
            _div(self.a.diff(axis), self.b),
            _div(_mul(self.a, self.b.diff(axis)), _mul(self.b, self.b)),
        )

    def __repr__(self):
        return f"({self.a!r} / {self.b!r})"


class Neg(FieldExpr):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def eval(self, u):
        return -self.a.eval(u)

    def jet(self, u):
        return -self.a.jet(u)

    def diff(self, axis):
        return _neg(self.a.diff(axis))

    def __repr__(self):
        return f"(-{self.a!r})"


class _Unary(FieldExpr):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class Exp(_Unary):
    __slots__ = ()

    def eval(self, u):
        return np.exp(self.a.eval(u))

    def jet(self, u):
        return exp(self.a.jet(u))

    def diff(self, axis):
        return _mul(self.a.diff(axis), self)

    def __repr__(self):
        return f"exp({self.a!r})"


class Sin(_Unary):
    __slots__ = ()

    def eval(self, u):
        return np.sin(self.a.eval(u))

    def jet(self, u):
        return sin(self.a.jet(u))

    def diff(self, axis):
        return _mul(self.a.diff(axis), Cos(self.a))

    def __repr__(self):
        return f"sin({self.a!r})"


class Cos(_Unary):
    __slots__ = ()

    def eval(self, u):
        return np.cos(self.a.eval(u))

    def jet(self, u):
        return cos(self.a.jet(u))

    def diff(self, axis):
        return _neg(_mul(self.a.diff(axis), Sin(self.a)))

    def __repr__(self):
        return f"cos({self.a!r})"


ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(x) -> FieldExpr:
    if isinstance(x, FieldExpr):
        return x
    return Const(x)


def coords() -> tuple[Coord, Coord, Coord, Coord]:
    """The four chart coordinate expressions (u1, u2, u3, u4)."""
    return Coord(0), Coord(1), Coord(2), Coord(3)


def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.c == value)


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.c + b.c)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.c - b.c)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.c * b.c)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return _neg(b)
    if _is_const(b, -1.0):
        return _neg(a)
    return Mul(a, b)


def _div(a, b):
    if _is_const(b):
        if b.c == 0.0:
            raise DomainError("division by the constant zero field")
        return _mul(a, Const(1.0 / b.c))
    if _is_const(a, 0.0):
        return ZERO
    return Div(a, b)


def _neg(a):
    if _is_const(a):
        return Const(-a.c)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def _unary(node, a, fn):
    if _is_const(a):
        return Const(fn(a.c))
    return node(a)


# --------------------------------------------------------------------------
# Public evaluation entry points
# --------------------------------------------------------------------------


def eval_jet(f: FieldExpr, u) -> Jet1:
    """Value and exact 4-gradient of ``f`` at the chart point(s) ``u``.

    ``u`` may be a single point of shape (4,) or a batch of shape (4, N);
    the returned jet then carries an (N,) value and a (4, N) gradient.
    """
    return f.jet(np.asarray(u, dtype=float))


def finite_diff_gradient(f, u, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate, the independent oracle.

    ``f`` may be a FieldExpr or any callable of a (4,) point.  The estimate
    is (f(u + h e_i) - f(u - h e_i)) / (2 h) per axis.
    """
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    u = as_point(u)
    grad = np.empty(CHART_DIM)
    for i in range(CHART_DIM):
        step = np.zeros(CHART_DIM)
        step[i] = h
        grad[i] = (f(u + step) - f(u - step)) / (2.0 * h)
    return grad


def gradient_exprs(f: FieldExpr) -> list[FieldExpr]:
    """Symbolic partials [df/du1, ..., df/du4] (used by the compiler)."""
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
                a, b = self.name(e.a), self.name(e.b)
                key, src = (kind, a, b), f"{a} {_INFIX[kind]} {b}"
                if kind in _COMMUTATIVE and b < a:
                    key = (kind, b, a)  # IEEE a + b == b + a and a * b == b * a exactly
            elif kind in _CALLS:
                a = self.name(e.a)
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
    is cross-checked against ``eval``/``eval_jet`` in the test suite.
    """
    ssa = _SSA()
    names = [ssa.name(e) for e in exprs]
    if epilogue is None:
        lines, outputs = [], names
    else:
        lines, outputs = epilogue([None if _is_const(e, 0.0) else n for e, n in zip(exprs, names)])
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
