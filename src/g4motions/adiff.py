"""Closed-form fields of the chart point and their symbolic first partials.

Every scalar field tabulated in the catalog (Killing frames, tetrads,
potentials) is a closed form built from constants, the four chart
coordinates, ``+ - * /`` and ``exp``/``sin``/``cos``.  ``FieldExpr`` captures
exactly that function class as a tiny expression tree, and ``diff`` builds
the exact partial along one chart axis as another such tree (constants fold,
zeros vanish, and a partial refers back to the nodes of its field where the
chain and product rules reuse them).

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
temporary, or written into its reader when it has exactly one.
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
    """One step per distinct ``_key``, in first-encounter order: (eval,
    operand slots, the operand slots it is the last reader of); and the
    slot of each root."""
    slot_of, by_key = {}, {}  # the slot of each node object, of each key
    fns, operands = [], []  # per slot

    def slot(e):
        out = slot_of.get(id(e))
        if out is None:
            args = tuple(map(slot, e.operands))
            out = by_key.setdefault(_key(e, args), len(fns))
            if out == len(fns):
                fns.append(e.eval)
                operands.append(args)
            slot_of[id(e)] = out
        return out

    outs = tuple(map(slot, roots))
    last = {i: k for k, args in enumerate(operands) for i in args}
    last.update(dict.fromkeys(outs))  # a root is kept to the end
    drops = [()] * len(fns)
    for i, k in last.items():
        if k is not None:
            drops[k] += (i,)
    return tuple(zip(fns, operands, drops)), outs


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
    """The structural key of ``e`` given the keys (slots or names) of its
    operands: nodes with equal keys have equal values at every point.  A
    node type from outside the library is keyed by its identity."""
    kind = type(e)
    if kind is Const or kind is Coord or kind is Var:
        return kind, repr(e)  # the axis, the name or the constant; repr tells -0.0 from 0.0
    if kind not in _SOURCE:
        return id(e)
    if kind in _COMMUTATIVE and ops[1] < ops[0]:
        return kind, ops[1], ops[0]  # IEEE a + b == b + a and a * b == b * a exactly
    return (kind, *ops)


class _SSA:
    """Hash-consing emitter: one temporary per distinct subtree.

    Leaves render inline (coordinates and ``Var`` arguments by name,
    constants as literals).  A node's key is ``_key`` of its operands' names,
    the rule ``evaluate``'s plans use, so structurally equal subtrees built
    as separate objects still share one temporary.  ``reads`` counts the
    readers of each name; a guarded denominator's guard is one of them.
    """

    def __init__(self):
        self.steps: list = []  # guard lines and (temp, source format, operand names)
        self.temps: dict[tuple, str] = {}
        self.reads: dict[str, int] = {}
        self.by_id: dict[int, str] = {}  # shared node objects: skip the re-walk

    def name(self, e: FieldExpr) -> str:
        """The temporary or literal of ``e``, counted as one more read."""
        out = self.by_id.get(id(e))
        if out is None:
            if isinstance(e, Const):
                out = repr(e.c) if e.c >= 0 else f"({e.c!r})"
            elif isinstance(e, (Coord, Var)):
                out = repr(e)
            else:
                out = self._node(e)
            self.by_id[id(e)] = out
        self.reads[out] = self.reads.get(out, 0) + 1
        return out

    def _node(self, e: FieldExpr) -> str:
        kind = type(e)
        if kind not in _SOURCE:
            raise TypeError(f"cannot compile {kind.__name__}")
        ops = tuple(map(self.name, e.operands))
        key = _key(e, ops)
        out = self.temps.get(key)
        if out is not None:
            for o in ops:  # read by the existing temporary, not by a new one
                self.reads[o] -= 1
            return out
        out = self.temps[key] = f"t{len(self.temps)}"
        if kind is Div:
            self.reads[ops[1]] += 1
            self.steps.append(f"if {-_SINGULAR!r} < {ops[1]} < {_SINGULAR!r}: raise DomainError(_SINGULAR_MSG)")
        self.steps.append((out, _SOURCE[kind], ops))
        return out

    def source(self, names: list[str]) -> tuple[list[str], list[str]]:
        """Body lines, and the source of each value in ``names``.  A
        temporary read once is written into its reader, in parentheses:
        the same operations in the same order."""
        lines, inline = [], {}
        for step in self.steps:
            if isinstance(step, str):
                lines.append(step)
                continue
            out, fmt, ops = step
            src = fmt.format(*(f"({inline.pop(o)})" if o in inline else o for o in ops))
            if self.reads[out] == 1:
                inline[out] = src
            else:
                lines.append(f"{out} = {src}")
        return lines, [inline.pop(n, n) for n in names]


def compile_values(exprs: Sequence[FieldExpr], extra_args: Sequence[str] = ()) -> Callable:
    """Compile expressions into one straight-line ``math`` function of
    ``(u1, u2, u3, u4, *extra_args)`` returning their values as a tuple of
    floats; ``Var`` leaves name the ``extra_args``.

    Every distinct subtree of the folded trees is evaluated once per call
    (common-subexpression elimination into SSA temporaries), and a
    temporary read exactly once is written into its reader instead.  Every
    denominator is guarded as in ``Div.eval``: a magnitude below 1e-14 raises
    ``DomainError``.  Compiled output is cross-checked against ``evaluate``
    in the test suite.
    """
    ssa = _SSA()
    lines, outputs = ssa.source([ssa.name(e) for e in exprs])
    args = ", ".join((*_COORD_NAMES, *extra_args))
    body = "".join(f"    {line}\n" for line in lines)
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
