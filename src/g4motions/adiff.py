"""Closed-form fields of the chart point and their symbolic first partials.

Every scalar field tabulated in the catalog (Killing frames, tetrads,
potentials) is a closed form built from constants, the four chart
coordinates, ``+ - * /`` and ``exp``/``sin``/``cos`` (of a tree or a
number, always a tree).  ``FieldExpr`` captures exactly that function class
as a tiny expression tree, and ``diff`` builds the exact partial along one
chart axis as another such tree (constants fold, zeros vanish, and a
partial refers back to the nodes of its field where the chain and product
rules reuse them).

``evaluate`` is the one evaluator, for values and partials alike.  It runs
a plan built on first use for each list of trees and kept in a bounded
memo: structurally equal subtrees share one value, even when built as
separate objects, and each value is dropped after its last use.  The
independent check on the partials is the central finite-difference oracle
of the verification suite (``checks.check_fd_oracle``).  A small
source-level compiler, ``compile_values``, turns one list of trees over the
chart point and named kernel arguments (``Var`` leaves, the integrator's
momenta) into a straight-line plain-``math`` function for the trajectory
integrator's hot loop: each distinct subtree is evaluated once, as a
temporary, or written into its reader when it has exactly one.  The plans
and the compiler read one hash-consing walk, ``_graph``, which gives each
distinct structural key (``_key``) one slot.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

CHART_DIM = 4

__all__ = [
    "CHART_DIM",
    "DomainError",
    "FieldExpr",
    "Const",
    "Coord",
    "Var",
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
    return _unary(Exp, as_expr(x), math.exp)


def sin(x):
    return _unary(Sin, as_expr(x), math.sin)


def cos(x):
    return _unary(Cos, as_expr(x), math.cos)


# --------------------------------------------------------------------------
# Expression trees
# --------------------------------------------------------------------------


class FieldExpr:
    """Closed-form scalar field of the chart point u = (u1, u2, u3, u4).

    A node names its child nodes in ``operands`` (empty for a leaf).
    ``eval(u, *values)`` receives the chart point(s) ``u``, of shape (4,) or
    (4, N), and the values of the operands in order; ``evaluate`` supplies
    them.  A node is immutable once built; ``gradient_exprs`` keeps its
    partials on it.
    """

    __slots__ = ("_partials",)
    operands: tuple = ()

    def eval(self, u, *values):
        raise NotImplementedError

    def diff(self, axis: int) -> "FieldExpr":
        raise NotImplementedError

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


class Var(FieldExpr):
    """A named argument of a compiled kernel besides the chart point (the
    trajectory kernel's momenta ``p1`` ... ``p4``); only ``compile_values``
    reads it."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


class _Op(FieldExpr):
    __slots__ = ("operands",)

    def __init__(self, *operands):
        self.operands = operands

    def __repr__(self):
        fmt = _SOURCE[type(self)]
        src = fmt.format(*map(repr, self.operands))
        return src if fmt.endswith(")") else f"({src})"  # exp(x), but (a + b) and (-a)


class Add(_Op):
    __slots__ = ()

    def eval(self, u, a, b):
        return a + b

    def diff(self, axis):
        a, b = self.operands
        return _add(a.diff(axis), b.diff(axis))


class Sub(_Op):
    __slots__ = ()

    def eval(self, u, a, b):
        return a - b

    def diff(self, axis):
        a, b = self.operands
        return _sub(a.diff(axis), b.diff(axis))


class Mul(_Op):
    __slots__ = ()

    def eval(self, u, a, b):
        return a * b

    def diff(self, axis):
        a, b = self.operands
        return _add(_mul(a.diff(axis), b), _mul(a, b.diff(axis)))


class Div(_Op):
    __slots__ = ()

    def eval(self, u, a, b):
        _guard_denominator(b)
        return a / b

    def diff(self, axis):
        # (a/b)' = a'/b - a b' / b^2
        a, b = self.operands
        return _sub(_div(a.diff(axis), b), _div(_mul(a, b.diff(axis)), _mul(b, b)))


class Neg(_Op):
    __slots__ = ()

    def eval(self, u, a):
        return -a

    def diff(self, axis):
        return _neg(self.operands[0].diff(axis))


class Exp(_Op):
    __slots__ = ()

    def eval(self, u, a):
        return np.exp(a)

    def diff(self, axis):
        return _mul(self.operands[0].diff(axis), self)


class Sin(_Op):
    __slots__ = ()

    def eval(self, u, a):
        return np.sin(a)

    def diff(self, axis):
        a = self.operands[0]
        return _mul(a.diff(axis), Cos(a))


class Cos(_Op):
    __slots__ = ()

    def eval(self, u, a):
        return np.cos(a)

    def diff(self, axis):
        a = self.operands[0]
        return _neg(_mul(a.diff(axis), Sin(a)))


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
    either way).  The call runs the plan built on the first call with these
    roots: structurally equal subtrees, and so trees that share nodes (a
    table's entries and their ``gradient_exprs``), share one value, and a
    value is dropped as soon as its last reader has run.
    """
    return _run(_plan(tuple(exprs)), u)


def _run(plan: tuple, u) -> list:
    u = np.asarray(u, dtype=float)
    steps, outs = plan
    values = []
    for fn, args, drop in steps:
        if len(args) == 2:  # the library's arities spelled out: no argument list per step
            values.append(fn(u, values[args[0]], values[args[1]]))
        elif len(args) == 1:
            values.append(fn(u, values[args[0]]))
        else:
            values.append(fn(u, *map(values.__getitem__, args)))
        for i in drop:
            values[i] = None
    return [values[i] for i in outs]


@lru_cache(maxsize=1024)  # about ten tables per model: room for all 64 memoized models
def _plan(roots: tuple) -> tuple:
    """One step per node of ``_graph(roots)``: (eval, operand slots, the
    operand slots it is the last reader of); and the slot of each root."""
    nodes, outs = _graph(roots)
    last = {i: k for k, (_, args) in enumerate(nodes) for i in args}
    last.update(dict.fromkeys(outs))  # a root is kept to the end
    drops = [()] * len(nodes)
    for i, k in last.items():
        if k is not None:
            drops[k] += (i,)
    return tuple((e.eval, args, drop) for (e, args), drop in zip(nodes, drops)), outs


def gradient_exprs(f: FieldExpr) -> tuple[FieldExpr, ...]:
    """Symbolic partials (df/du1, ..., df/du4), built on the first call and
    kept on the node, so every later call returns the same trees."""
    try:
        return f._partials
    except AttributeError:
        f._partials = partials = tuple(f.diff(i) for i in range(CHART_DIM))
        return partials


_COORD_NAMES = ("u1", "u2", "u3", "u4")
_SOURCE = {
    Add: "{} + {}", Sub: "{} - {}", Mul: "{} * {}", Div: "{} / {}",
    Neg: "-{}", Exp: "exp({})", Sin: "sin({})", Cos: "cos({})",
}
_COMMUTATIVE = (Add, Mul)


def _key(e: FieldExpr, ops: tuple):
    """The structural key of ``e`` given the slots of its operands: nodes with equal keys have equal values at every point.  A
    node type from outside the library is keyed by its identity."""
    kind = type(e)
    if kind is Const or kind is Coord or kind is Var:
        return kind, repr(e)  # the axis, the name or the constant; repr tells -0.0 from 0.0
    if kind not in _SOURCE:
        return id(e)
    if kind in _COMMUTATIVE and ops[1] < ops[0]:
        return kind, ops[1], ops[0]  # IEEE a + b == b + a and a * b == b * a exactly
    return (kind, *ops)


def _graph(roots) -> tuple[list, tuple]:
    """The hash-consing walk: the first node of each distinct ``_key`` with
    its operand slots, in first-encounter post-order (operands first), and
    the slot of each root.  Structurally equal subtrees built as separate
    objects get one slot; a node object is walked once however often it is
    read."""
    slot_of, by_key, nodes = {}, {}, []  # the slot of each node object, of each key

    def slot(e):
        out = slot_of.get(id(e))
        if out is None:
            args = tuple(map(slot, e.operands))
            out = by_key.setdefault(_key(e, args), len(nodes))
            if out == len(nodes):
                nodes.append((e, args))
            slot_of[id(e)] = out
        return out

    return nodes, tuple(map(slot, roots))


def compile_values(exprs: Sequence[FieldExpr], extra_args: Sequence[str] = ()) -> Callable:
    """Compile expressions into one straight-line ``math`` function of
    ``(u1, u2, u3, u4, *extra_args)`` returning their values as a tuple of
    floats; ``Var`` leaves name the ``extra_args``, distinct non-coordinate names (else ``ValueError``).

    Every distinct subtree of the folded trees is evaluated once per call
    (one temporary ``t<k>`` per node of ``_graph``, numbered in slot order),
    and a temporary read exactly once is written into its reader instead, in
    parentheses: the same operations in the same order.  Every
    denominator is guarded as in ``Div.eval``: a magnitude below 1e-14 raises
    ``DomainError``.  Compiled output is cross-checked against ``evaluate``
    in the test suite.
    """
    params = (*_COORD_NAMES, *extra_args)
    for k, name in enumerate(extra_args, start=len(_COORD_NAMES)):
        if name in params[:k]:
            raise ValueError(f"kernel argument {name!r} repeats or is a coordinate name")
    nodes, outs = _graph(exprs)
    reads = [0] * len(nodes)  # per slot: operand reads, root reads and the guard's read
    for e, args in nodes:
        for i in (*args, args[1]) if type(e) is Div else args:
            reads[i] += 1
    for i in outs:
        reads[i] += 1
    names, inline, lines, temps = [], {}, [], 0  # per slot: literal or temporary
    for k, (e, args) in enumerate(nodes):
        kind = type(e)
        if kind is Const:
            names.append(repr(e.c) if e.c >= 0 else f"({e.c!r})")
        elif kind is Coord or kind is Var:
            if kind is Var and e.name not in extra_args:
                raise ValueError(f"Var {e.name!r} is not among the kernel arguments {tuple(extra_args)}")
            names.append(repr(e))
        elif kind not in _SOURCE:
            raise TypeError(f"cannot compile {kind.__name__}")
        else:
            if kind is Div:
                lines.append(f"if {-_SINGULAR!r} < {names[args[1]]} < {_SINGULAR!r}: raise DomainError(_SINGULAR_MSG)")
            code = _SOURCE[kind].format(*(f"({inline.pop(i)})" if i in inline else names[i] for i in args))
            names.append(f"t{temps}")
            temps += 1
            if reads[k] == 1:
                inline[k] = code
            else:
                lines.append(f"{names[k]} = {code}")
    outputs = [inline.pop(i) if i in inline else names[i] for i in outs]
    body = "".join(f"    {line}\n" for line in lines)
    src = f"def _kernel({', '.join(params)}):\n{body}    return ({', '.join(outputs)},)\n"
    namespace = {
        "exp": math.exp,
        "sin": math.sin,
        "cos": math.cos,
        "DomainError": DomainError,
        "_SINGULAR_MSG": _SINGULAR_MSG,
    }
    exec(compile(src, "<g4motions-compiled>", "exec"), namespace)
    return namespace.pop("_kernel")  # no function <-> globals cycle: freed by refcount
