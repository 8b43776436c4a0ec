"""Tape opcode semantics, backward correctness, stop_gradient, determinism."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvi import tape as tape_mod
from hvi.experiments import snr_grad_fn
from hvi.models import flat_generative, make_snr_task
from hvi.rng import RngStream
from hvi.tape import DomainError, NodeId, OpcodeError, ParamStore, Tape

FD_STEP = 1e-6
FD_RTOL = 1e-5


def grad_of(t, out, node):
    return t.backward(out)[NodeId(node.index)]


class TestRecord:
    def test_unknown_opcode_rejected(self):
        t = Tape()
        with pytest.raises(OpcodeError):
            t.record("frobnicate", ())

    def test_log_partial_at_two(self):
        t = Tape()
        x = t.leaf(2.0)
        y = t.log(x)
        assert float(grad_of(t, y, x)) == pytest.approx(0.5, abs=1e-12)

    def test_logsumexp_of_two_zeros(self):
        t = Tape()
        v = t.logsumexp(t.const(np.zeros(2)))
        assert float(t.val(v)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_domain_error_carries_value(self):
        t = Tape()
        x = t.const(np.array([1.0, -3.0]))
        with pytest.raises(DomainError) as exc:
            t.log(x)
        assert exc.value.offending_value == -3.0
        with pytest.raises(DomainError):
            t.sqrt(t.const(-1.0))

    def test_value_only_for_leaf_opcodes(self):
        t = Tape()
        a, b = t.leaf(1.0), t.const(2.0)
        with pytest.raises(ValueError, match="computes its value"):
            t.record("add", (a, b), value=3.0)
        with pytest.raises(ValueError, match="requires an explicit value"):
            t.record("const", ())
        assert float(t.val(t.record("add", (a, b)))) == 3.0

    def test_ids_topologically_ordered(self):
        t = Tape()
        a = t.leaf(1.0)
        b = t.add(a, t.const(2.0))
        c = t.mul(b, a)
        assert a.index < b.index < c.index


class TestBackward:
    def test_square_at_three(self):
        t = Tape()
        x = t.leaf(3.0)
        assert float(grad_of(t, t.mul(x, x), x)) == pytest.approx(6.0)

    def test_softplus_at_zero(self):
        t = Tape()
        x = t.leaf(0.0)
        assert float(grad_of(t, t.softplus(x), x)) == pytest.approx(0.5)

    def test_logsumexp_symmetric_gradients(self):
        t = Tape()
        x = t.leaf(1.0)
        y = t.leaf(1.0)
        out = t.logsumexp(t.concat([t.reshape(x, (1,)), t.reshape(y, (1,))]))
        g = t.backward(out)
        assert float(g[NodeId(x.index)]) == pytest.approx(0.5)
        assert float(g[NodeId(y.index)]) == pytest.approx(0.5)

    def test_fanout_accumulates_by_summation(self):
        t = Tape()
        x = t.leaf(2.0)
        out = t.add(t.mul(x, x), t.mul(3.0, x))   # x^2 + 3x -> 2x + 3
        assert float(grad_of(t, out, x)) == pytest.approx(7.0)

    def test_deterministic_gradient_maps(self):
        t = Tape()
        x = t.leaf(np.array([0.5, 2.0, 3.0]))
        out = t.sum(t.mul(t.log(x), t.exp(t.neg(x))))
        g1 = t.backward(out)
        g2 = t.backward(out)
        assert g1.keys() == g2.keys()
        for k in g1:
            assert np.array_equal(g1[k], g2[k])

    def test_backward_rejects_foreign_node(self):
        t = Tape()
        t.leaf(1.0)
        with pytest.raises(ValueError):
            t.backward(NodeId(99))

    def test_overflow_safe_logsumexp(self):
        t = Tape()
        v = t.logsumexp(t.const(np.array([1000.0, 1000.0])))
        assert float(t.val(v)) == pytest.approx(1000.0 + math.log(2.0), rel=1e-15)


class TestPruning:
    """Only nodes that lead back to a leaf get adjoints; backward returns the
    leaves' adjoints alone."""

    def test_const_and_stopped_branches_get_no_adjoint(self, monkeypatch):
        ran = []
        for op, fn in list(tape_mod._BACKWARD.items()):
            if fn is not None:
                def logged(g, v, out, aux, need, fn=fn, op=op):
                    contribs = fn(g, v, out, aux, need)
                    ran.append((op, tuple(need), tuple(c is not None for c in contribs)))
                    return contribs
                monkeypatch.setitem(tape_mod._BACKWARD, op, logged)
        t = Tape()
        x = t.leaf(np.arange(6.0).reshape(3, 2))
        h = t.matmul(x, t.const(np.ones((2, 2))))
        stopped = t.matmul(t.const(np.eye(3)), t.stop_gradient(h))
        const_only = t.exp(t.const(np.zeros((3, 2))))
        out = t.sum(t.add(t.mul(h, stopped), const_only))
        g = t.backward(out)
        assert list(g) == [NodeId(x.index)]
        assert ran == [("sum", (True,), (True,)), ("add", (True, False), (True, False)),
                       ("mul", (True, False), (True, False)),
                       ("matmul", (True, False), (True, False))]

    def test_backward_returns_leaf_entries_only(self):
        t = Tape()
        x, y = t.leaf(np.array([0.5, 2.0])), t.leaf(3.0)
        out = t.sum(t.mul(t.log(x), t.add(y, t.const(1.0))))
        g = t.backward(out)
        assert set(g) == {NodeId(x.index), NodeId(y.index)}
        assert all(t._ops[k.index] == "leaf" for k in g)

    def test_output_without_a_leaf_has_an_empty_map(self):
        t = Tape()
        t.leaf(1.0)
        assert t.backward(t.sum(t.exp(t.const(np.zeros(2))))) == {}

    def test_snr_unit_tape_stays_small(self, monkeypatch):
        # One node per Normal density: an snr unit at K = 8 records 38 nodes
        # (70 with each density as a chain), and its backward holds leaves only.
        seen = []
        real = Tape.backward

        def spy(t, out):
            gmap = real(t, out)
            seen.append((t, gmap))
            return gmap

        monkeypatch.setattr(Tape, "backward", spy)
        model, tau, store = make_snr_task(ParamStore(), RngStream(0))
        snr_grad_fn("autodiff", flat_generative(), model, tau, 32, 8)(RngStream(1))
        ((t, gmap),) = seen
        assert len(t) <= 40
        assert len(gmap) == 2 and all(t._ops[k.index] == "leaf" for k in gmap)


class TestStopGradient:
    def test_product_with_frozen_factor(self):
        t = Tape()
        x = t.leaf(3.0)
        out = t.mul(x, t.stop_gradient(x))
        assert float(t.val(out)) == pytest.approx(9.0)
        assert float(grad_of(t, out, x)) == pytest.approx(3.0)

    def test_alone_gives_zero(self):
        t = Tape()
        x = t.leaf(4.2)
        out = t.mul(1.0, t.stop_gradient(x))
        g = t.backward(out)
        assert NodeId(x.index) not in g

    def test_only_identity_path_differentiates(self):
        t = Tape()
        x = t.leaf(0.0)
        out = t.add(t.stop_gradient(t.softplus(x)), x)
        assert float(grad_of(t, out, x)) == pytest.approx(1.0)


# One scalar-input case per elementwise opcode, on its own domain.
UNARY_CASES = [
    ("neg", lambda r: r * 4 - 2), ("log", lambda r: r * 3 + 0.1),
    ("exp", lambda r: r * 4 - 2), ("sqrt", lambda r: r * 3 + 0.1),
    ("abs", lambda r: r * 4 - 2 + 0.05), ("softplus", lambda r: r * 8 - 4),
    ("sigmoid", lambda r: r * 8 - 4), ("lgamma", lambda r: r * 5 + 0.2),
]


@pytest.mark.parametrize("op,to_domain", UNARY_CASES)
def test_unary_backward_matches_central_differences(op, to_domain):
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    for _ in range(20):
        x = float(to_domain(rng.random()))
        t = Tape()
        leaf = t.leaf(x)
        out = getattr(t, op)(leaf)
        g = float(grad_of(t, out, leaf))
        tp, tm = Tape(), Tape()
        fp = float(tp.val(getattr(tp, op)(tp.leaf(x + FD_STEP))))
        fm = float(tm.val(getattr(tm, op)(tm.leaf(x - FD_STEP))))
        fd = (fp - fm) / (2 * FD_STEP)
        assert g == pytest.approx(fd, rel=FD_RTOL, abs=1e-7)


BINARY_CASES = [("add", 0.0), ("sub", 0.0), ("mul", 0.0), ("div", 1.0)]


@pytest.mark.parametrize("op,shift", BINARY_CASES)
def test_binary_backward_matches_central_differences(op, shift):
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    for _ in range(20):
        a = float(rng.random() * 2 + shift + 0.3)
        b = float(rng.random() * 2 + shift + 0.3)
        for slot in (0, 1):
            t = Tape()
            la, lb = t.leaf(a), t.leaf(b)
            out = getattr(t, op)(la, lb)
            g = float(grad_of(t, out, la if slot == 0 else lb))

            def f(v):
                tt = Tape()
                args = [v if slot == 0 else a, v if slot == 1 else b]
                return float(tt.val(getattr(tt, op)(tt.leaf(args[0]), tt.leaf(args[1]))))

            x0 = a if slot == 0 else b
            fd = (f(x0 + FD_STEP) - f(x0 - FD_STEP)) / (2 * FD_STEP)
            assert g == pytest.approx(fd, rel=FD_RTOL, abs=1e-7)


def test_matrix_ops_backward_matches_central_differences():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 4))
    B = rng.standard_normal((4, 2))
    v = rng.standard_normal(4)

    def build(a_val):
        t = Tape()
        a = t.leaf(a_val)
        mm = t.matmul(a, t.const(B))
        mv = t.matvec(a, t.const(v))
        out = t.add(t.sum(t.mul(mm, mm)), t.logsumexp(mv))
        return t, a, out

    t, a, out = build(A)
    g = grad_of(t, out, a)
    for idx in [(0, 0), (1, 2), (2, 3)]:
        Ap, Am = A.copy(), A.copy()
        Ap[idx] += FD_STEP
        Am[idx] -= FD_STEP
        tp, _, op_ = build(Ap)
        tm, _, om = build(Am)
        fd = (float(tp.val(op_)) - float(tm.val(om))) / (2 * FD_STEP)
        assert g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_reduction_and_layout_ops_backward():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((2, 3)) + 2.0

    def build(x_val):
        t = Tape()
        x = t.leaf(x_val)
        big = t.concat([x, x, x], axis=0)                  # (6, 3)
        out = t.add(t.sum(t.logsumexp(big, axis=1)),
                    t.sum(t.mul(t.reshape(big, (3, 6)), 0.25)))
        return t, x, out

    t, x, out = build(X)
    g = grad_of(t, out, x)
    for idx in [(0, 0), (1, 2), (0, 1)]:
        Xp, Xm = X.copy(), X.copy()
        Xp[idx] += FD_STEP
        Xm[idx] -= FD_STEP
        tp, _, op_ = build(Xp)
        tm, _, om = build(Xm)
        fd = (float(tp.val(op_)) - float(tm.val(om))) / (2 * FD_STEP)
        assert g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_slice_rows_backward_matches_central_differences():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((5, 3))
    W = rng.standard_normal((3, 3))

    def build(x_val):
        t = Tape()
        x = t.leaf(x_val)
        top = t.slice_rows(x, 0, 2)                        # overlaps mid at row 1
        mid = t.slice_rows(x, 1, 4)
        out = t.add(t.sum(t.logsumexp(t.matmul(mid, t.const(W)), axis=1)),
                    t.sum(t.mul(top, top)))
        return t, x, out

    t, x, out = build(X)
    np.testing.assert_array_equal(t.val(t.slice_rows(x, 1, 4)), X[1:4])
    g = grad_of(t, out, x)
    assert np.all(g[4] == 0.0)
    for idx in [(0, 0), (1, 2), (3, 1), (4, 0)]:
        Xp, Xm = X.copy(), X.copy()
        Xp[idx] += FD_STEP
        Xm[idx] -= FD_STEP
        tp, _, op_ = build(Xp)
        tm, _, om = build(Xm)
        fd = (float(tp.val(op_)) - float(tm.val(om))) / (2 * FD_STEP)
        assert g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8),
       st.floats(-700, 700))
def test_logsumexp_shift_invariance(xs, c):
    t = Tape()
    arr = np.asarray(xs)
    plain = float(t.val(t.logsumexp(t.const(arr))))
    shifted = float(t.val(t.logsumexp(t.const(arr + c)))) - c
    assert shifted == pytest.approx(plain, rel=1e-12, abs=1e-9)


class TestParamStore:
    def test_grad_shapes_match_blocks(self):
        s = ParamStore()
        s.add("w", np.zeros((3, 2)))
        s.add("b", np.zeros(2))
        for n in s.names():
            assert s.grads[n].shape == s[n].shape

    def test_param_binding_and_grad_collection(self):
        s = ParamStore()
        s.add("w", np.array([1.0, 2.0]))
        t = Tape()
        w = t.param(s, "w")
        out = t.sum(t.mul(w, w))
        grads = t.param_grads(t.backward(out))
        np.testing.assert_allclose(grads["w"], [2.0, 4.0])

    def test_duplicate_block_rejected(self):
        s = ParamStore()
        s.add("w", np.zeros(1))
        with pytest.raises(ValueError):
            s.add("w", np.zeros(1))

    def test_eager_tape_refuses_backward(self):
        t = Tape(requires_grad=False)
        x = t.leaf(1.0)
        y = t.mul(x, x)
        assert float(t.val(y)) == 1.0
        with pytest.raises(RuntimeError):
            t.backward(y)
