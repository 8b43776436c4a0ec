"""Special functions against scipy (the independent implementation)."""

import math

import numpy as np
import pytest
from scipy import special as sps
from scipy import stats

from hvi import oracle, special


def test_lgamma_matches_stdlib():
    xs = np.concatenate([np.linspace(0.05, 0.45, 9), np.linspace(0.5, 40, 80)])
    ours = special.lgamma(xs)
    ref = np.array([math.lgamma(float(x)) for x in xs])
    np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-12)


def test_lgamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        special.lgamma(0.0)
    with pytest.raises(ValueError):
        special.lgamma(np.array([1.0, -2.0]))


def test_digamma_matches_scipy():
    xs = np.linspace(0.02, 35, 300)
    np.testing.assert_allclose(special.digamma(xs), sps.digamma(xs), rtol=1e-11, atol=1e-11)


def test_softplus_sigmoid_stability():
    xs = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
    sp = special.softplus(xs)
    assert sp[0] == 0.0 and sp[-1] == 800.0
    assert sp[2] == pytest.approx(math.log(2.0))
    sg = special.sigmoid(xs)
    assert 0.0 <= sg[0] < 1e-300 and sg[-1] == 1.0
    assert sg[2] == 0.5


def _softplus_reference(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid_reference(x):
    t = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def test_softplus_sigmoid_bits_match_the_textbook_expressions():
    # The in-place forms must give the bits of the plain expressions, signs of
    # zero and NaN payloads included, contiguous or not.
    nan = np.float64(np.nan)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, nan, -nan, 5e-324, -5e-324, 1e-300, -1e-300])
    g = np.random.default_rng(11)
    xs = np.concatenate([edges, np.linspace(-800.0, 800.0, 4000),
                         g.uniform(-40.0, 40.0, 4000), g.standard_normal(4000) * 3.0])
    for x in (xs, xs.reshape(-1, 2)[:, ::-1], xs[7]):
        assert special.softplus(x).tobytes() == _softplus_reference(x).tobytes()
        assert special.sigmoid(x).tobytes() == _sigmoid_reference(x).tobytes()
        own = np.array(x, copy=True)                 # softplus in x's own buffer
        assert special.softplus(own, out=own) is own
        assert own.tobytes() == _softplus_reference(x).tobytes()


def _digamma_reference(x):
    x = np.asarray(x, dtype=np.float64)
    shift = np.zeros_like(x)
    xs = np.array(x, copy=True)
    for _ in range(10):
        mask = xs < 10.0
        if not np.any(mask):
            break
        shift = shift - np.where(mask, 1.0 / xs, 0.0)
        xs = np.where(mask, xs + 1.0, xs)
    inv = 1.0 / xs
    inv2 = inv * inv
    tail = inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (
        1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * 691.0 / 32760.0)))))
    return np.log(xs) - 0.5 * inv - tail + shift


def test_digamma_bits_match_the_allocating_reference():
    g = np.random.default_rng(17)
    xs = np.concatenate([[1e-300, 1e-3, 0.5, 9.999999999999998, 10.0, 1e300],
                         g.uniform(0.01, 30.0, 3000), np.logspace(-3, 4, 500)])
    for x in (xs, xs.reshape(-1, 2)[:, ::-1], xs[7]):
        assert special.digamma(x).tobytes() == _digamma_reference(x).tobytes()


def test_inv_softplus_round_trip():
    ys = np.array([1e-4, 0.1, 0.5, 1.0, 7.0])
    np.testing.assert_allclose(special.softplus(special.inv_softplus(ys)), ys, rtol=1e-12)


def test_gammainc_matches_scipy():
    a = np.linspace(0.05, 25, 40)[:, None]
    x = np.linspace(0.0, 60, 55)[None, :]
    A = np.broadcast_to(a, (40, 55))
    X = np.broadcast_to(x, (40, 55))
    np.testing.assert_allclose(special.gammainc_p(A, X), sps.gammainc(A, X),
                               rtol=1e-11, atol=1e-13)


def test_gammainc_wide_range_and_upper_tail():
    # Large a needs hundreds of steps; the continued fraction's own value
    # g * H must match Q(a, x) in relative terms far out in the tail.
    a = np.logspace(-3, 3, 25)[:, None]
    x = np.logspace(-3, 3.5, 30)[None, :]
    A, X = np.broadcast_arrays(a, x)
    np.testing.assert_allclose(special.gammainc_p(A, X), sps.gammainc(A, X),
                               rtol=1e-11, atol=1e-13)
    s, _, upper = special.gammainc_sums(A, X)
    prefactor = np.exp(A * np.log(X) - X - sps.gammaln(A))
    tail = upper & (sps.gammaincc(A, X) > 1e-300)
    np.testing.assert_allclose((prefactor * s)[tail], sps.gammaincc(A, X)[tail], rtol=1e-10)


@pytest.mark.parametrize("a", [1e4, 1e5])
def test_gammainc_converges_for_large_a(a):
    # Near x = a the series needs about 8 sqrt(a) terms, past any fixed cap.
    x = np.array([a - 0.5, a + 0.5])
    np.testing.assert_allclose(special.gammainc_p(a, x), sps.gammainc(a, x), rtol=1e-9)


def test_gammainc_rejects_non_finite():
    with pytest.raises(ValueError):
        special.gammainc_p(np.nan, 1.0)
    with pytest.raises(ValueError):
        special.gammainc_sums(np.array([1.0, 2.0]), np.array([np.inf, 1.0]))


def _series_start_reference(a, x):
    term = 1.0 / a
    dterm = -term * term
    return term, dterm, a, x, term, dterm


def _series_step_reference(i, state):
    s, ds, a, x, term, dterm = state
    ap = a + i
    term = term * x / ap
    dterm = (dterm * x - term) / ap
    return s + term, ds + dterm, a, x, term, dterm


def _series_done_reference(state):
    return state[5] >= special._EPS * state[1]


def _cf_start_reference(a, x):
    b = x + 1.0 - a
    d = 1.0 / b
    dd = d * d
    return d, dd, a, b, d, dd, d, dd


def _cf_step_reference(i, state):
    h, dh, a, b, d, dd, dl, ddl = state
    an = i * (a - i)
    b = b + 2.0
    ddn = 1.0 - i * d - an * dd
    d = 1.0 / (b + an * d)
    dd = ddn * d * d
    m = b * d - 1.0
    ddl = (b * dd - d) * dl + m * ddl
    dl = m * dl
    return h + dl, dh + ddl, a, b, d, dd, dl, ddl


def _cf_done_reference(state):
    h, dh, dl, ddl = state[0], state[1], state[6], state[7]
    return (np.abs(dl) <= special._EPS * h) & (np.abs(ddl) <= special._EPS * dh)


def _iterate_reference(state, step, done, max_iter, drops):
    # The allocating iteration: every step returns a fresh state; ``drops``
    # counts the three-quarter drops taken.
    n = state[0].size
    val, dval, idx = np.empty(n), np.empty(n), np.arange(n)
    for i in range(1, max_iter):
        state = step(i, state)
        if i % special._CHECK_EVERY:
            continue
        ok = done(state)
        n_ok = np.count_nonzero(ok)
        if n_ok == idx.size:
            val[idx], dval[idx] = state[0], state[1]
            return val, dval
        if 4 * n_ok >= 3 * idx.size:
            drops.append(i)
            out = np.flatnonzero(ok)
            val[idx[out]], dval[idx[out]] = state[0][out], state[1][out]
            keep = np.flatnonzero(~ok)
            idx = idx[keep]
            state = tuple(v[keep] for v in state)
    raise RuntimeError("incomplete gamma iteration did not converge")


def _gammainc_sums_reference(a, x, drops):
    a, x = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(x, dtype=np.float64))
    shape = a.shape
    a, x = a.ravel(), x.ravel()
    s, ds = np.empty(a.shape), np.empty(a.shape)
    upper = x >= a + 1.0
    for branch, sel, start, step, done in (
            ("series", np.flatnonzero(~upper), _series_start_reference,
             _series_step_reference, _series_done_reference),
            ("cf", np.flatnonzero(upper), _cf_start_reference,
             _cf_step_reference, _cf_done_reference)):
        if sel.size:
            cap = special._MAX_ITER + int(special._MAX_ITER_PER_SQRT_A * np.sqrt(np.max(a[sel])))
            s[sel], ds[sel] = _iterate_reference(start(a[sel], x[sel]), step, done, cap,
                                                 drops.setdefault(branch, []))
    return s.reshape(shape), ds.reshape(shape), upper.reshape(shape)


def _gammainc_grid():
    g = np.random.default_rng(31)
    a = np.logspace(-3, 4, 29)[:, None]
    x = np.logspace(-3, 4.5, 31)[None, :]
    wide = np.broadcast_arrays(a, x)
    near_a = np.concatenate([np.logspace(-3, 4, 200), [1e3, 1e4]])
    near = (near_a, near_a + 1.0 + g.uniform(-0.01, 0.01, near_a.size))
    # Mostly fast elements with a slow tail, so the working set is dropped.
    mixed_a = g.uniform(0.3, 3.0, 4000)
    mixed = (mixed_a, np.where(np.arange(4000) % 10, g.uniform(0.01, 0.3, 4000),
                               g.uniform(0.0, 2.0, 4000) + mixed_a))
    mixed_a_cf = g.uniform(0.3, 3.0, 4000)
    mixed_cf = (mixed_a_cf, mixed_a_cf + np.where(np.arange(4000) % 10, g.uniform(20.0, 40.0, 4000),
                                                  g.uniform(1.0, 1.5, 4000)))
    big = np.broadcast_arrays(np.array([1e3, 1e4])[:, None],
                              np.array([0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0])[None, :] * 1e3)
    return [wide, near, mixed, mixed_cf, (big[0], big[1] * big[0] / 1e3)]


def test_gammainc_sums_bits_match_the_allocating_reference():
    drops = {}
    for a, x in _gammainc_grid():
        got = special.gammainc_sums(a, x)
        want = _gammainc_sums_reference(a, x, drops)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
    # The grid covers both branches, and each through a three-quarter drop.
    assert drops["series"] and drops["cf"]


def test_gammainc_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(special, "_MAX_ITER", 9)
    monkeypatch.setattr(special, "_MAX_ITER_PER_SQRT_A", 0.0)
    for x in (2.5, 4.0):                      # the series, then the continued fraction
        with pytest.raises(RuntimeError, match="did not converge"):
            special.gammainc_sums(np.array([2.0, 3.0]), np.array([x, x]))


def test_gamma_ppf_inverts_cdf():
    a = np.array([0.3, 0.7, 1.0, 2.5, 9.0, 30.0])
    u = np.array([0.01, 0.2, 0.5, 0.8, 0.97, 0.999])
    x = oracle.gamma_ppf_unit(a, u)
    np.testing.assert_allclose(special.gammainc_p(a, x), u, atol=1e-12)
    np.testing.assert_allclose(x, stats.gamma.ppf(u, a), rtol=1e-10)
