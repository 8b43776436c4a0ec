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


def test_gamma_ppf_inverts_cdf():
    a = np.array([0.3, 0.7, 1.0, 2.5, 9.0, 30.0])
    u = np.array([0.01, 0.2, 0.5, 0.8, 0.97, 0.999])
    x = oracle.gamma_ppf_unit(a, u)
    np.testing.assert_allclose(special.gammainc_p(a, x), u, atol=1e-12)
    np.testing.assert_allclose(x, stats.gamma.ppf(u, a), rtol=1e-10)
