"""Symbolic partials and the one evaluator against hand values and the
finite-difference oracle."""
import math
import weakref

import numpy as np
import pytest

from g4motions import adiff, catalog
from g4motions.adiff import (
    Add,
    Const,
    DomainError,
    FieldExpr,
    Var,
    compile_values,
    coords,
    cos,
    evaluate,
    exp,
    gradient_exprs,
    sin,
)
from g4motions.catalog import eval_table, eval_table_jet
from oracles import finite_diff_gradient, unplanned_evaluate

U1, U2, U3, U4 = coords()


def value_and_grad(f, u):
    """Value and 4-gradient of ``f`` at ``u`` ((4,) or (4, N)) from one
    evaluation of the field and its symbolic partials."""
    value, *grad = evaluate([f, *gradient_exprs(f)], u)
    return value, np.array(grad)


def test_constant_field_has_zero_gradient():
    value, grad = value_and_grad(Const(7.0), [0.3, -1.0, 2.0, 0.5])
    assert value == 7.0
    assert np.all(grad == 0.0)


def test_exponential_profile_gradient_at_origin():
    # d/du4 exp(-2 u4) = -2 at u4 = 0
    f = exp(-2.0 * U4)
    value, grad = value_and_grad(f, [0.0, 0.0, 0.0, 0.0])
    assert value == pytest.approx(1.0, abs=0)
    assert np.allclose(grad, [0.0, 0.0, 0.0, -2.0])


def test_linear_field_finite_difference():
    fd = finite_diff_gradient(U2, [0.3, 1.2, -0.4, 0.7], h=1e-5)
    assert np.allclose(fd, [0.0, 1.0, 0.0, 0.0], atol=1e-9)


def test_exp_finite_difference_at_zero():
    fd = finite_diff_gradient(exp(U4), [0.0, 0.0, 0.0, 0.0], h=1e-5)
    assert abs(fd[3] - 1.0) < 1e-9


def test_jet_matches_finite_difference_on_mixed_expression():
    f = U1 * exp(-2.0 * U4)
    rng = np.random.default_rng(11)
    for _ in range(25):
        u = rng.uniform(-1.5, 1.5, size=4)
        _, grad = value_and_grad(f, u)
        fd = finite_diff_gradient(f, u, h=1e-5)
        assert np.allclose(grad, fd, rtol=1e-7, atol=1e-9)


def test_product_rule_is_exact():
    rng = np.random.default_rng(5)
    f = sin(U1) + U2 * U3
    g = exp(0.5 * U4) - U1 / (2.0 + cos(U2))
    fg = f * g
    for _ in range(50):
        u = rng.uniform(-1.4, 1.4, size=4)
        (vf, df), (vg, dg), (vfg, dfg) = (value_and_grad(h, u) for h in (f, g, fg))
        assert vfg == pytest.approx(vf * vg, abs=1e-12, rel=1e-12)
        composed = df * vg + vf * dg
        assert np.max(np.abs(dfg - composed)) <= 1e-12 * (1 + np.max(np.abs(composed)))


def test_quotient_and_chain_rule_against_oracle():
    f = cos(U1 * U2) / (3.0 + sin(U3)) * exp(-U4)
    rng = np.random.default_rng(8)
    for _ in range(30):
        u = rng.uniform(-1.2, 1.2, size=4)
        _, grad = value_and_grad(f, u)
        fd = finite_diff_gradient(f, u)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * (1 + np.max(np.abs(grad)))


def test_batched_jets_match_pointwise():
    f = U1 * U1 * exp(-U3) + sin(U4 - U2)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(20, 4))
    batch_value, batch_grad = value_and_grad(f, pts.T)
    for k, u in enumerate(pts):
        value, grad = value_and_grad(f, u)
        assert batch_value[k] == pytest.approx(value, abs=0)
        assert np.array_equal(batch_grad[:, k], grad)


def test_singular_denominator_raises():
    f = 1.0 / sin(U1)
    with pytest.raises(DomainError):
        unplanned_evaluate([f], [0.0, 1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        value_and_grad(f, [0.0, 1.0, 1.0, 1.0])


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_gradient(U1, [0, 0, 0, 0], h=0.0)


def test_symbolic_diff_matches_jets():
    """The symbolic partials against the central-difference oracle (the
    independent check on the one derivative path), at the oracle's bound."""
    f = U1 * exp(-2.0 * U4) + cos(U2) / (2.0 + U3 * U3)
    rng = np.random.default_rng(17)
    partials = adiff.gradient_exprs(f)
    for _ in range(20):
        u = rng.uniform(-1.3, 1.3, size=4)
        sym = np.array(unplanned_evaluate(partials, u))
        assert np.allclose(sym, finite_diff_gradient(f, u, h=1e-5), rtol=1e-7, atol=1e-9)


def test_compiled_values_match_tree_walk():
    exprs = [
        U1 * exp(-2.0 * U4),
        cos(U2 - U3) / (2.0 + sin(U1)),
        -(U3 * U3) + 0.5 * U2,
        Const(-3.25),
        U3 / (U1 - U2),
    ]
    fn = compile_values(exprs)
    rng = np.random.default_rng(23)
    for _ in range(20):
        u = rng.uniform(-1.4, 1.4, size=4)
        got = fn(*u)
        want = unplanned_evaluate(exprs, u)
        assert np.allclose(got, want, atol=0, rtol=1e-15)


def test_compiled_guard_and_kernel_arguments():
    """A denominator read once is still guarded, and ``Var`` leaves read the
    extra arguments."""
    fn = compile_values([U3 / (U1 - U2)])
    with pytest.raises(DomainError):
        fn(0.5, 0.5, 1.0, 0.0)
    fn = compile_values([adiff.Var("p1") * U1 + adiff.Var("p2")], ("p1", "p2"))
    assert fn(3.0, 0.0, 0.0, 0.0, 2.0, 0.25) == (6.25,)


@pytest.mark.parametrize(
    "exprs, extra_args, name",
    [
        ([Var("p1") * U2], (), "p1"),  # a Var outside the kernel arguments
        ([Var("u1") * U2], ("u1",), "u1"),  # an argument named like a coordinate
        ([Var("p1") * U2], ("p1", "p1"), "p1"),  # a repeated argument
    ],
)
def test_compile_refuses_bad_argument_names(exprs, extra_args, name, monkeypatch):
    """Refused with the offending name before any source is compiled, not
    at the kernel's first call (NameError) or by ``compile`` (SyntaxError)."""
    monkeypatch.setattr(adiff, "compile", None, raising=False)  # any call would raise TypeError
    with pytest.raises(ValueError, match=repr(name)):
        compile_values(exprs, extra_args)


def test_compile_refuses_an_outside_node_type():
    for exprs in ([_Square(U1)], [U2 + _Square(U1)]):  # as a root, and as an operand
        with pytest.raises(TypeError, match="cannot compile _Square"):
            compile_values(exprs)


def test_compiled_repeated_and_nested_roots():
    """A root listed twice, and a root that one other root also reads."""
    f = cos(U2 - U3) / (2.0 + sin(U1))
    g = U1 * exp(-2.0 * U4)
    exprs = [f, g, f, g * U3]
    fn = compile_values(exprs)
    rng = np.random.default_rng(31)
    for _ in range(20):
        u = rng.uniform(-1.4, 1.4, size=4)
        got = fn(*u)
        assert len(got) == 4 and got[0] == got[2]
        assert np.allclose(got, unplanned_evaluate(exprs, u), atol=0, rtol=1e-15)


def _temporaries(fn) -> tuple:
    return fn.__code__.co_varnames[fn.__code__.co_argcount :]


def test_compiled_temporaries():
    """Equal subtrees built as two objects share one temporary (``t1``, the
    product read by both roots), and a denominator read once by its division
    is read by its guard too, so it stays a temporary (``t0``)."""
    shared = [sin(U1) * U2 + U3, sin(U1) * U2 - U4]
    assert _temporaries(compile_values(shared)) == ("t1",)
    assert _temporaries(compile_values([sin(U1) * U2 + U3, sin(U2) * U2 - U4])) == ()  # nothing shared
    assert _temporaries(compile_values([U3 / (U1 - U2)])) == ("t0",)


def test_catalog_expressions_agree_with_oracle(models):
    """Every expression table of every entry: symbolic partials vs central
    differences, |ad - fd| <= atol + rtol |ad| with atol = rtol = 1e-6,
    h = 1e-5."""
    from g4motions import catalog

    for gid, model in models.items():
        pts = catalog.sample_points(model.domain, 100, 7)
        # keep FD probes inside the domain for the entries with sin(u1) floors
        lo, hi = model.domain.bounds()
        pts = np.clip(pts, lo + 1e-4, hi - 1e-4)
        for table in (model.xi, model.dual, model.e_cov, model.e_con, model.holo_basis):
            _, grads = eval_table_jet(table, pts)  # (n, 4, r, c)
            for i, row in enumerate(table):
                for j, expr in enumerate(row):
                    for k in range(0, len(pts), 7):
                        fd = finite_diff_gradient(expr, pts[k], h=1e-5)
                        ad = grads[k, :, i, j]
                        assert np.max(np.abs(ad - fd)) <= 1e-6 + 1e-6 * np.max(np.abs(ad)), (
                            gid,
                            expr,
                        )


# --------------------------------------------------------------------------
# The evaluator
# --------------------------------------------------------------------------


class _Tally(FieldExpr):
    """Identity node that logs each of its evaluations; its partials are
    tallied too."""

    log: list = []

    def __init__(self, f):
        self.operands = (f,)

    def eval(self, u, f):
        _Tally.log.append(id(self))
        return f

    def diff(self, axis):
        return _Tally(self.operands[0].diff(axis))


def _reachable(roots):
    seen, stack = {}, list(roots)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            stack.extend(e.operands)
    return seen.values()


def test_each_distinct_node_evaluated_once_across_values_and_partials():
    a = _Tally(U1 * U2)
    b = _Tally(exp(-a))
    table = [[a * b, b / (2.0 + a)], [sin(a), _Tally(U3) * b]]
    flat = [e for row in table for e in row]
    roots = [*flat, *(d for e in flat for d in gradient_exprs(e))]
    pts = np.random.default_rng(2).uniform(-1.0, 1.0, size=(4, 6))

    _Tally.log.clear()
    values = evaluate(roots, pts)
    tallies = [id(e) for e in _reachable(roots) if isinstance(e, _Tally)]
    assert len(tallies) > 3  # the partials add tally nodes of their own
    assert sorted(_Tally.log) == sorted(tallies)
    want = [np.array([unplanned_evaluate([e], p)[0] for p in pts.T]) for e in roots]
    for got, ref in zip(values, want):
        assert np.allclose(got, ref, atol=0, rtol=1e-15)

    # the table evaluator shares the value nodes with the partials the same way
    _Tally.log.clear()
    eval_table_jet(table, pts.T)
    assert _Tally.log.count(id(a)) == 1 and _Tally.log.count(id(b)) == 1


def test_root_that_is_an_operand_of_another_root():
    f = exp(U4)
    assert f.diff(3) is f  # the partial is the exp node itself
    g = U1 * f
    u = [0.5, -0.3, 1.1, 0.7]
    got = evaluate([g, *gradient_exprs(g), f, f.diff(3), f], u)
    e = math.exp(0.7)
    want = [0.5 * e, e, 0.0, 0.0, 0.5 * e, e, e, e]
    assert np.allclose(got, want, atol=0, rtol=1e-15)


class _Square(FieldExpr):
    """A node type defined outside the library: f**2 with (f**2)' = 2 f f'."""

    def __init__(self, f):
        self.operands = (f,)

    def eval(self, u, f):
        return f * f

    def diff(self, axis):
        f = self.operands[0]
        return 2.0 * f * f.diff(axis)


def test_node_type_defined_outside_the_library():
    f = _Square(sin(U1) + U2 * U4)
    rng = np.random.default_rng(31)
    for _ in range(10):
        u = rng.uniform(-1.2, 1.2, size=4)
        value, grad = value_and_grad(f, u)
        assert value == pytest.approx((math.sin(u[0]) + u[1] * u[3]) ** 2, abs=0, rel=1e-15)
        assert np.allclose(grad, finite_diff_gradient(f, u, h=1e-5), rtol=1e-7, atol=1e-9)
    pts = rng.uniform(-1.2, 1.2, size=(5, 4))
    vals, grads = eval_table_jet([[f, U3]], pts)
    for k, u in enumerate(pts):
        value, grad = value_and_grad(f, u)
        assert vals[k, 0, 0] == value and np.array_equal(grads[k, :, 0, 0], grad)


# --------------------------------------------------------------------------
# The plan against the unplanned walk
# --------------------------------------------------------------------------

TABLES = ("xi", "dual", "e_cov", "e_con", "holo_basis", "frame_basis", "reference_frame",
          "tetrad_basis")


def _identical(got, want) -> bool:
    """The same values bit for bit: equal, with the same shape and the same
    signs of zeros."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _jet_roots(table) -> list:
    """A table's entries, then their partials in ``eval_table_jet``'s order."""
    flat = [e for row in table for e in row]
    return [*flat, *(p[l] for l in range(adiff.CHART_DIM) for p in map(gradient_exprs, flat))]


def _unplanned_table_jet(table, pts):
    n, r, c = len(pts), len(table), len(table[0])
    out = np.empty((n, 5 * r * c))
    for k, v in enumerate(unplanned_evaluate(_jet_roots(table), pts.T)):
        out[:, k] = v
    return out[:, : r * c].reshape(n, r, c), out[:, r * c :].reshape(n, adiff.CHART_DIM, r, c)


@pytest.mark.parametrize("n", [1, 2, 257])
def test_plan_matches_unplanned_walk_on_every_table(models, n):
    for gid, model in models.items():
        pts = catalog.sample_points(model.domain, n, 5)
        for name in TABLES:
            table = getattr(model, name)
            if table is None:
                continue
            want_vals, want_grads = _unplanned_table_jet(table, pts)
            vals, grads = eval_table_jet(table, pts)
            assert _identical(vals, want_vals) and _identical(grads, want_grads), (gid, name)
            assert vals.flags.c_contiguous and grads.flags.c_contiguous
            assert _identical(eval_table(table, pts), want_vals), (gid, name)
            roots = _jet_roots(table)
            got, want = evaluate(roots, pts.T), unplanned_evaluate(roots, pts.T)
            assert len(got) == len(want)
            assert all(_identical(a, b) for a, b in zip(got, want)), (gid, name)


def test_plan_matches_unplanned_walk_at_a_single_point(models):
    for gid, model in models.items():
        u = catalog.sample_points(model.domain, 1, 9)[0]  # shape (4,)
        for name in TABLES:
            table = getattr(model, name)
            if table is None:
                continue
            roots = _jet_roots(table)
            got, want = evaluate(roots, u), unplanned_evaluate(roots, u)
            assert all(isinstance(v, float) for v in got), (gid, name)
            assert all(_identical(a, b) for a, b in zip(got, want)), (gid, name)


def test_plan_keeps_the_sign_of_a_zero_constant():
    """0.0 == -0.0, so a key by value would merge them, and 0.0 + -0.0 would
    come out as -0.0."""
    u = [0.1, 0.2, 0.3, 0.4]
    for roots in ([Add(Const(-0.0), Const(-0.0)), Add(Const(0.0), Const(-0.0))],
                  [Add(Const(0.0), Const(-0.0)), Add(Const(-0.0), Const(-0.0))]):
        got = dict(zip(map(repr, roots), evaluate(roots, u)))
        assert math.copysign(1.0, got["(-0.0 + -0.0)"]) == -1.0
        assert math.copysign(1.0, got["(0.0 + -0.0)"]) == 1.0


def test_plan_shares_one_step_between_equal_subtrees():
    a, b = sin(U1), U2 * U3
    steps, outs = adiff._plan((Add(a, b), Add(b, a), sin(U1) + U3 * U2, a - b, b - a))
    assert outs[0] == outs[1] == outs[2]  # Add and Mul operands in either order
    assert len(set(outs)) == 3  # a - b and b - a are not the same value
    assert len(steps) == 8  # u1, sin, u2, u3, *, +, the two -
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(4, 3))
    got = evaluate([Add(a, b), Add(b, a)], pts)
    assert got[0] is got[1] and _identical(got[0], np.sin(pts[0]) + pts[1] * pts[2])


def test_plan_evaluates_an_outside_node_type_once_per_object():
    first, second = _Tally(U1 * U2), _Tally(U2 * U1)  # structurally equal, two objects
    roots = [first, second, first + second, first * U3, _Square(first), _Square(first)]
    _Tally.log.clear()
    values = evaluate(roots, np.random.default_rng(6).uniform(-1.0, 1.0, size=(4, 5)))
    assert sorted(_Tally.log) == sorted([id(first), id(second)])
    assert _identical(values[4], values[1] ** 2)
    _, outs = adiff._plan(tuple(roots))
    assert len(set(outs)) == len(roots)  # each outside node is its own value


class _Watched(FieldExpr):
    """Copies its operand's value and keeps a weak reference to the copy."""

    refs: list = []

    def __init__(self, f):
        self.operands = (f,)

    def eval(self, u, f):
        out = f + 0.0
        _Watched.refs.append(weakref.ref(out))
        return out

    def diff(self, axis):
        raise NotImplementedError


class _Census(FieldExpr):
    """A leaf that records which watched values are alive when it runs."""

    alive: list = []

    def eval(self, u):
        _Census.alive.append([r() is not None for r in _Watched.refs])
        return u[0]


def test_plan_drops_a_value_after_its_last_reader():
    read_once, root = _Watched(U1 * U2), _Watched(U3 + U4)
    _Watched.refs.clear()
    _Census.alive.clear()
    evaluate([sin(read_once), root, _Census()], np.ones((4, 3)))
    assert _Census.alive == [[False, True]]  # sin has read the first; the root is kept


def test_plan_raises_on_a_var_as_the_walk_does():
    f = Var("p1") * U1
    for ev in (evaluate, unplanned_evaluate):
        with pytest.raises(NotImplementedError):
            ev([f], [0.1, 0.2, 0.3, 0.4])


def _raised(ev, roots, u):
    with pytest.raises(Exception) as info:
        ev(roots, u)
    return type(info.value), str(info.value)


def test_error_mid_plan_matches_the_walk_and_leaves_the_plan_usable():
    """A denominator that vanishes at one point, and an exp that overflows
    under ``errstate(over="raise")``: the same error as the unplanned walk,
    and the next call on the same plan gives the same values as the walk."""
    roots = [U2 + U3, exp(U4) * U3 / sin(U1), exp(800.0 * U4) + U2]
    good = np.random.default_rng(12).uniform(0.1, 0.5, size=(4, 6)) * [[1], [1], [1], [0.1]]
    singular = good.copy()
    singular[0, 3] = 0.0  # sin(u1) = 0 at the fourth point
    overflowing = good.copy()
    overflowing[3, 2] = 1.0  # exp(800) at the third point
    for u, kind in ((singular, DomainError), (overflowing, FloatingPointError)):
        with np.errstate(over="raise"):
            got = _raised(evaluate, roots, u)
            assert got == _raised(unplanned_evaluate, roots, u)
            assert got[0] is kind
            misses = adiff._plan.cache_info().misses
            values = evaluate(roots, good)
            assert adiff._plan.cache_info().misses == misses
            assert all(_identical(a, b) for a, b in zip(values, unplanned_evaluate(roots, good)))
