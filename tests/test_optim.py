"""Adam: one guarded descent step on a gradient map."""

import numpy as np
import pytest

from hvi.optim import Adam
from hvi.tape import ParamStore


def _store():
    store = ParamStore()
    store.add("a", np.array([0.5, -1.0]))
    store.add("b", np.array([[2.0]]))
    return store


def test_descend_equals_accumulate_then_step():
    grads = {"a": np.array([0.3, -0.2]), "b": np.array([[1.5]]), "other": np.ones(3)}
    x, y = _store(), _store()
    ox, oy = Adam(x, x.names()), Adam(y, y.names())
    for _ in range(3):
        ox.descend(grads)
        for n in y.names():
            y.grads[n][...] = grads[n]
        oy.step()
    for n in x.names():
        np.testing.assert_array_equal(x[n], y[n])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_raises_before_anything_moves(bad):
    store = _store()
    opt = Adam(store, store.names(), amsgrad=True)
    opt.descend({"a": np.array([0.3, -0.2]), "b": np.array([[1.5]])})
    before = {n: store[n].copy() for n in store.names()}
    moments = [{n: v.copy() for n, v in d.items()} for d in (opt._m, opt._v, opt._vhat)]
    with pytest.raises(FloatingPointError, match="block 'b' at step 2$"):
        opt.descend({"a": np.array([0.1, 0.1]), "b": np.array([[bad]])})
    for n in store.names():
        np.testing.assert_array_equal(store[n], before[n])
    for saved, live in zip(moments, (opt._m, opt._v, opt._vhat)):
        for n in saved:
            np.testing.assert_array_equal(live[n], saved[n])
    assert opt._t == 1


def _textbook_adam(params, grads_seq, lr, amsgrad, b1=0.9, b2=0.999, eps=1e-8):
    """Adam in the textbook expressions on fresh arrays; the bit reference."""
    m = {n: np.zeros_like(p) for n, p in params.items()}
    v = {n: np.zeros_like(p) for n, p in params.items()}
    vhat = {n: np.zeros_like(p) for n, p in params.items()}
    params = dict(params)
    for step, grads in enumerate(grads_seq, 1):
        for n, g in grads.items():
            m[n] = b1 * m[n] + (1 - b1) * g
            v[n] = b2 * v[n] + (1 - b2) * g * g
            m_hat = m[n] / (1 - b1 ** step)
            if amsgrad:
                vhat[n] = np.maximum(vhat[n], v[n])
                v_hat = vhat[n] / (1 - b2 ** step)
            else:
                v_hat = v[n] / (1 - b2 ** step)
            params[n] = params[n] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, m, v, vhat


@pytest.mark.parametrize("amsgrad", [False, True])
def test_in_place_moments_keep_the_textbook_bits(amsgrad):
    g = np.random.default_rng(7)
    store = ParamStore()
    store.add("w", g.standard_normal((5, 3)))
    store.add("s", 0.25)
    start = {n: store[n].copy() for n in store.names()}
    grads_seq = [{n: g.standard_normal(np.shape(store[n])) * (1 + i % 5) for n in start}
                 for i in range(60)]
    opt = Adam(store, store.names(), lr=3e-3, amsgrad=amsgrad)
    leaf_view = store["w"]
    for grads in grads_seq:
        opt.descend(grads)
    want = _textbook_adam(start, grads_seq, 3e-3, amsgrad)
    for got, ref in zip(({n: store[n] for n in start}, opt._m, opt._v, opt._vhat), want):
        for n in got:
            assert got[n].tobytes() == ref[n].tobytes(), n
    # Parameters get fresh arrays: a tape leaf bound before a step keeps its value.
    assert leaf_view.tobytes() == start["w"].tobytes()
