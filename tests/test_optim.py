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
    with pytest.raises(FloatingPointError, match="'b'"):
        opt.descend({"a": np.array([0.1, 0.1]), "b": np.array([[bad]])})
    for n in store.names():
        np.testing.assert_array_equal(store[n], before[n])
    for saved, live in zip(moments, (opt._m, opt._v, opt._vhat)):
        for n in saved:
            np.testing.assert_array_equal(live[n], saved[n])
    assert opt._t == 1
