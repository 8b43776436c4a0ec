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

    def test_node_ids_compare_and_hash_by_index_alone(self):
        held = NodeId(2, np.ones(3))
        assert held == NodeId(2) and hash(held) == hash(NodeId(2)) and held != NodeId(3)
        assert {NodeId(2): "x"}[held] == "x"

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
        # One node per Normal density, and one for [psi_0; draws]: an snr
        # unit at K = 8 records 35 nodes (38 with the draws as noise, sum,
        # reshape and concat; 70 with each density as a chain too), and its
        # backward holds leaves only.
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
        assert len(t) <= 35
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


# -- the lean reverse pass against the one it replaced -------------------------

def _normal_lp_bwd_reference(g, v, out, aux, need):
    # The Normal density's backward as it was: s, z, gz and -gs each a
    # full-size array.
    sd, _, x, mu = v
    shape = np.broadcast_shapes(x.shape, mu.shape, sd.shape)
    g = np.expand_dims(g.reshape(shape[:-1]), -1)
    s = x - mu
    z = np.divide(s, sd, out=np.empty(shape))
    gz = np.multiply(g, -0.5, out=np.empty(shape))
    np.multiply(gz, z, out=gz)
    np.add(gz, gz, out=gz)
    d_log = d_quot = d_x = d_mu = None
    if need[0]:
        d_log = tape_mod._unbroadcast(np.negative(g, out=z), sd.shape) / sd
        np.negative(gz, out=z)
        np.multiply(z, s, out=z)
        d_quot = tape_mod._unbroadcast(np.divide(z, sd * sd, out=z), sd.shape)
    if need[2] or need[3]:
        gs = tape_mod._unbroadcast(np.divide(gz, sd, out=gz), s.shape)
        d_x = tape_mod._unbroadcast(gs, x.shape) if need[2] else None
        d_mu = tape_mod._unbroadcast(-gs, mu.shape) if need[3] else None
    return [d_log, d_quot, d_x, d_mu]


def _backward_reference(t, output):
    # The reverse pass as it was: every later adjoint makes a fresh
    # grads[i] + c, and a leaf's first adjoint is copied.
    bwd = dict(tape_mod._BACKWARD, normal_log_prob=_normal_lp_bwd_reference)
    leaves = {}
    if not t._needs[output.index]:
        return leaves
    grads = {output.index: np.ones_like(t.values[output.index])}
    for idx in range(output.index, -1, -1):
        g = grads.pop(idx, None)
        if g is None:
            continue
        ins = t._inputs[idx]
        if not ins:
            leaves[NodeId(idx)] = g
            continue
        need = [t._needs[i] for i in ins]
        contribs = bwd[t._ops[idx]](g, [t.values[i] for i in ins], t.values[idx],
                                    t._aux[idx], need)
        for i, n, c in zip(ins, need, contribs):
            if not n:
                continue
            if i in grads:
                grads[i] = grads[i] + c
            elif t._inputs[i]:
                grads[i] = c
            else:
                grads[i] = np.array(c, dtype=np.float64, copy=True)
    return leaves


def _held_bytes(t):
    """Bytes of every array the tape holds: values and aux arrays."""
    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, tuple):
            for o in obj:
                yield from arrays(o)
    return [a.tobytes() for v, aux in zip(t.values, t._aux) for a in arrays((v, aux))]


@pytest.fixture
def checked_backward(monkeypatch):
    """Every ``Tape.backward`` call also runs the reference pass and a second
    lean pass, and checks leaf adjoints byte for byte and that no array the
    tape holds was written.  Returns the leaf counts of the checked calls."""
    lean = Tape.backward
    calls = []

    def backward(t, output):
        held = _held_bytes(t)
        ref = _backward_reference(t, output)
        got = lean(t, output)
        again = lean(t, output)
        assert _held_bytes(t) == held
        for gmap in (got, again):
            assert list(gmap) == list(ref)
            for k in ref:
                assert gmap[k].shape == ref[k].shape
                assert gmap[k].tobytes() == ref[k].tobytes(), t._ops[k.index]
        calls.append(len(got))
        return got

    monkeypatch.setattr(Tape, "backward", backward)
    return calls


class TestLeanReversePass:
    """Owned in-place adjoint sums and the one-buffer Normal backward keep
    the bits of the pass they replaced and write into nothing they borrow."""

    @pytest.mark.parametrize("kind", ["autodiff", "dreg", "iwae"])
    def test_snr_estimators_at_k64(self, checked_backward, kind):
        model, tau, _ = make_snr_task(ParamStore(), RngStream(0))
        snr_grad_fn(kind, flat_generative(), model, tau, 100, 64)(RngStream(3))
        assert checked_backward == [2]

    def test_toy_laplace_step(self, checked_backward):
        from hvi.bounds import upper_bound_U_joint
        from hvi.models import make_gamma_mlp_tau, make_laplace_scale_mixture
        store = ParamStore()
        rng = RngStream(4)
        tau = make_gamma_mlp_tau(50, (128, 128, 128), store, rng)
        t = Tape()
        est = upper_bound_U_joint(make_laplace_scale_mixture(50), tau, np.zeros((32, 0)), 10,
                                  rng, t)
        t.backward(est.node)
        assert len(checked_backward) == 1 and checked_backward[0] >= len(store.names("tau."))

    def test_vae_train_step_at_k2(self, checked_backward):
        from hvi.bounds import BoundConfig, diwhvi_elbo
        from hvi.models import make_mini_vae
        vae = make_mini_vae(784, 8, 8, (64, 64), RngStream(0))
        x = (np.random.default_rng(0).random((32, 784)) < 0.3).astype(float)
        t = Tape()
        est = diwhvi_elbo(vae.gen, vae.q, vae.tau, None, x, BoundConfig(M=1, K=2),
                          RngStream(1), t)
        t.backward(t.neg(est.node))
        assert len(checked_backward) == 1 and checked_backward[0] >= len(vae.store.names())

    @pytest.mark.parametrize("alias_first", [True, False])
    def test_adjoints_through_views_and_aliases(self, checked_backward, alias_first):
        # y takes four adjoints: a reshape view of an owned buffer, g itself
        # from an add that hands the same array to w, and two fresh ones.
        # The add is recorded last or first among y's readers, so the
        # aliased adjoint arrives first or last.
        gen = np.random.default_rng(5)
        t = Tape()
        x = t.leaf(gen.standard_normal((6, 4)))
        y, w = t.mul(x, 1.5), t.exp(x)

        def both():
            return [t.sum(t.mul(t.add(y, w), gen.standard_normal((6, 4))))]

        parts = [] if alias_first else both()
        parts += [t.sum(t.mul(t.reshape(y, (24,)), gen.standard_normal(24))),
                  t.sum(t.exp(y)), t.sum(t.mul(y, t.const(gen.standard_normal((6, 4))))),
                  t.sum(t.mul(w, w))]
        parts += both() if alias_first else []
        out = parts[0]
        for p in parts[1:]:
            out = t.add(out, p)
        t.backward(out)
        assert checked_backward == [1]

    @pytest.mark.parametrize("layout", ["reshape", "concat"])
    def test_views_of_a_shared_adjoint_stay_unwritten(self, checked_backward, layout):
        # An add hands one g to two layout nodes, which pass views of it on.
        # Node a takes such a view first and a fresh adjoint (from exp)
        # before the second layout node reads g: the sum must be new.
        gen = np.random.default_rng(8)
        t = Tape()
        x = t.leaf(gen.standard_normal((6, 4)))
        a, b = t.mul(x, 1.5), t.mul(x, -0.5)
        if layout == "reshape":
            second = t.reshape(b, (24,))
            e = t.exp(a)
            shared = t.add(t.reshape(a, (24,)), second)
        else:
            second = t.concat([b, a])
            e = t.exp(a)
            shared = t.add(t.concat([a, b]), second)
        out = t.add(t.sum(t.mul(shared, gen.standard_normal(t.val(shared).shape))), t.sum(e))
        t.backward(out)
        assert checked_backward == [1]

    @pytest.mark.parametrize("mu_rows", [1, 4])
    @pytest.mark.parametrize("live", ["x", "mu", "sd", "x mu", "x sd", "mu sd", "x mu sd"])
    def test_normal_density_for_each_live_side(self, checked_backward, live, mu_rows):
        # Each side of the density a leaf or a constant, with mu of x's
        # shape or one row broadcast over x's four.
        gen = np.random.default_rng(7)
        t = Tape()
        sides = {"x": gen.standard_normal((4, 3)), "mu": gen.standard_normal((mu_rows, 3)),
                 "sd": gen.uniform(0.5, 2.0, (4, 3))}
        nodes = {k: t.leaf(v) if k in live.split() else v for k, v in sides.items()}
        lp = t.normal_log_prob(nodes["x"], nodes["mu"], nodes["sd"])
        t.backward(t.sum(t.mul(lp, gen.standard_normal(4))))
        assert checked_backward == [len(live.split())]

    def test_located_draws_match_their_chain(self):
        # One node against concat([first, reshape(add(mean, const(noise)))]):
        # the same values and the same adjoints for first and mean.
        gen = np.random.default_rng(6)
        first0, mean0 = gen.standard_normal((5, 3)), gen.standard_normal((5, 3))
        noise = gen.standard_normal((4, 5, 3))
        weights = gen.standard_normal((25, 3))
        runs = []
        for fused in (True, False):
            t = Tape()
            first, mean = t.leaf(first0), t.mul(t.leaf(mean0), 1.25)
            if fused:
                buf = np.empty((25, 3))
                buf[5:] = noise.reshape(20, 3)
                draws = t.located_draws(mean, buf, noise.shape, first)
            else:
                draws = t.concat([first, t.reshape(t.add(mean, t.const(noise)), (20, 3))])
            gmap = t.backward(t.sum(t.mul(draws, weights)))
            runs.append([t.val(draws).tobytes()] + [g.tobytes() for g in gmap.values()])
        assert runs[0] == runs[1]

    def test_negated_block_sum_keeps_the_sign_of_an_exact_cancellation(self):
        # mu's adjoint sums -gs over blocks.  In column 0 the two blocks'
        # terms cancel exactly, so the sum of -gs is +0.0, where the negated
        # sum of gs would read -0.0.
        sd = np.array(1.0)
        x = np.array([[[1.0, 2.0]], [[-1.0, 0.5]]])       # (2, 1, 2) blocks
        mu = np.zeros((1, 2))
        g = np.ones(2)
        need = [False, False, True, True]
        got = tape_mod._normal_lp_bwd(g, [sd, sd, x, mu], None, None, need)
        ref = _normal_lp_bwd_reference(g, [sd, sd, x, mu], None, None, need)
        assert got[3][0, 0] == 0.0 and not np.signbit(got[3][0, 0])
        assert [a.tobytes() for a in got[2:]] == [a.tobytes() for a in ref[2:]]
