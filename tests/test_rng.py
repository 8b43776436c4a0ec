"""Stream reproducibility, splitting, and the uniform-consumption contract."""

import numpy as np
import pytest
from scipy import stats

from hvi.rng import RngStream


def test_same_seed_same_sequence():
    a = RngStream(123).uniform((100,))
    b = RngStream(123).uniform((100,))
    np.testing.assert_array_equal(a, b)


def test_split_streams_are_independent_and_reproducible():
    root = RngStream(9)
    c1 = root.split(0).uniform((50,))
    c2 = root.split(1).uniform((50,))
    assert not np.allclose(c1, c2)
    np.testing.assert_array_equal(c1, RngStream(9).split(0).uniform((50,)))


def test_uniform_consumption_counts():
    r = RngStream(1)
    r.uniform((7,))
    assert r.uniforms_consumed == 7
    r.normal((5,))
    assert r.uniforms_consumed == 7 + 10          # Box-Muller: 2 per draw
    r.exponential(2.0, (4,))
    assert r.uniforms_consumed == 17 + 4          # inverse CDF: 1 per draw
    r.categorical([0.2, 0.8])
    assert r.uniforms_consumed == 22

    before = r.uniforms_consumed
    r.gamma(np.full(10, 2.0))
    assert r.uniforms_consumed > before           # variable, forward-only


def test_moment_sanity():
    r = RngStream(5)
    n = r.normal((10 ** 6,))
    assert abs(n.mean()) < 4e-3 and abs(n.var() - 1) < 6e-3
    e = r.exponential(0.5, (10 ** 6,))
    assert abs(e.mean() - 2.0) < 0.01
    g = r.gamma(np.full(10 ** 6, 3.0), 2.0)
    assert abs(g.mean() - 1.5) < 0.01 and abs(g.var() - 0.75) < 0.01


def test_categorical_frequencies():
    r = RngStream(11)
    probs = np.array([0.1, 0.6, 0.3])
    draws = np.array([r.categorical(probs) for _ in range(20000)])
    freqs = np.bincount(draws, minlength=3) / len(draws)
    np.testing.assert_allclose(freqs, probs, atol=0.02)


def test_gamma_requires_positive_concentration():
    with pytest.raises(ValueError):
        RngStream(0).gamma(np.array([0.0, 1.0]))


@pytest.mark.parametrize("conc,rate", [([np.nan, 1.0], 1.0), ([np.inf, 1.0], 1.0),
                                       ([2.0, 1.0], np.nan), ([2.0, 1.0], 0.0)])
def test_gamma_rejects_bad_parameters_up_front(conc, rate):
    r = RngStream(0)
    with pytest.raises(ValueError, match="concentration and rate"):
        r.gamma(np.array(conc), rate)
    assert r.uniforms_consumed == 0


def test_gamma_redraws_only_pending_elements():
    r = RngStream(0)
    g = r.gamma(np.full(10 ** 5, 3.0))
    assert r.uniforms_consumed < 3.5 * g.size
    # 1 uniform per element when any concentration is below 1, then 3 per
    # pending element per round.
    r = RngStream(0)
    conc = np.array([0.5] * 7 + [2.0] * 13)
    r.gamma(conc)
    extra = r.uniforms_consumed - conc.size
    assert extra % 3 == 0 and extra >= 3 * conc.size
    np.testing.assert_array_equal(RngStream(4).gamma(conc, 2.0), RngStream(4).gamma(conc, 2.0))


@pytest.mark.parametrize("a", [0.4, 1.0, 3.0])
def test_gamma_matches_scipy_ks(a):
    # a < 1 takes the U^(1/a) boost path.
    s = RngStream(7).gamma(np.full(20000, a), 2.0)
    assert stats.kstest(s, stats.gamma(a, scale=0.5).cdf).pvalue > 0.01
