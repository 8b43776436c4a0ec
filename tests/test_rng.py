"""Stream reproducibility, splitting, and the uniform-consumption contract."""

import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import hvi
from hvi import experiments
from hvi.models import make_gamma_mlp_tau, make_laplace_scale_mixture
from hvi.rng import RngStream
from hvi.tape import ParamStore


class ReferenceStream(RngStream):
    """The samplers as plain expressions on fresh arrays, kept as the bit-level
    reference for the in-place ones."""

    def _open_uniform(self, shape=()):
        return 1.0 - self.uniform(shape)

    def normal(self, shape=()):
        u1 = self._open_uniform(shape)
        u2 = self.uniform(shape)
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def exponential(self, rate=1.0, shape=()):
        return -np.log(self._open_uniform(shape)) / rate

    def gamma(self, concentration, rate=1.0, shape=None):
        conc = np.asarray(concentration, dtype=np.float64)
        rate = np.asarray(rate, dtype=np.float64)
        if shape is None:
            shape = conc.shape
        conc = np.broadcast_to(conc, shape)
        if not (np.all(np.isfinite(conc)) and np.all(np.isfinite(rate))):
            raise ValueError("gamma requires finite concentration and rate")
        if np.any(conc <= 0.0) or np.any(rate <= 0.0):
            raise ValueError("gamma requires positive concentration and rate")
        a = conc.ravel()
        d = a - 1.0 / 3.0
        small = np.flatnonzero(a < 1.0)
        if small.size:
            boost = self._open_uniform((a.size,))[small] ** (1.0 / a[small])
            d[small] = (a[small] + 1.0) - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        out, ok = self._marsaglia_tsang_round(d, c)
        pending = np.flatnonzero(~ok)
        for _ in range(199):
            if not pending.size:
                break
            draw, ok = self._marsaglia_tsang_round(d[pending], c[pending])
            out[pending[ok]] = draw[ok]
            pending = pending[~ok]
        if pending.size:
            raise RuntimeError("gamma sampler failed to accept after 200 rounds")
        if small.size:
            out[small] *= boost
        return out.reshape(shape) / rate

    def _marsaglia_tsang_round(self, d, c):
        x = self.normal((d.size,))
        u = self._open_uniform((d.size,))
        v = (1.0 + c * x) ** 3
        ok = (v > 0.0) & (np.log(u) < 0.5 * x * x + d - d * v
                          + d * np.log(np.maximum(v, 1e-300)))
        return d * v, ok


def assert_same_draw(draw, seed=3):
    """``draw(stream)`` gives the reference's bits, shape and consumption."""
    got_rng, want_rng = RngStream(seed), ReferenceStream(seed)
    got, want = np.asarray(draw(got_rng)), np.asarray(draw(want_rng))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got_rng.uniforms_consumed == want_rng.uniforms_consumed


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
    ref = ReferenceStream(1)
    ref.uniform((before,))
    ref.gamma(np.full(10, 2.0))
    assert r.uniforms_consumed == ref.uniforms_consumed        # variable, forward-only


@pytest.mark.parametrize("draw,count", [(lambda r: r.uniform(0), 0), (lambda r: r.normal(0), 0),
                                        (lambda r: r.uniform(()), 1),
                                        (lambda r: r.normal((3, 0)), 0)],
                         ids=["uniform(0)", "normal(0)", "uniform(())", "normal((3, 0))"])
def test_consumption_counts_what_was_drawn(draw, count):
    r = RngStream(2)
    draw(r)
    assert r.uniforms_consumed == count


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


def test_categorical_table_draws_what_a_row_loop_draws():
    g = np.random.default_rng(3)
    table = g.uniform(size=(500, 5)) * (g.uniform(size=(500, 5)) < 0.6)   # zero-probability cells
    table[:, 2] += 1e-3                                                     # no all-zero row
    table /= table.sum(axis=1, keepdims=True)
    by_row, at_once = RngStream(4), RngStream(4)
    loop = np.array([by_row.categorical(p) for p in table], dtype=np.int64)
    codes = at_once.categorical(table)
    assert codes.dtype == np.int64 and codes.tobytes() == loop.tobytes()
    assert at_once.uniforms_consumed == by_row.uniforms_consumed == 500
    assert at_once.uniform() == by_row.uniform()


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


class TestInPlaceSamplers:
    """The in-place samplers against ``ReferenceStream``: the same bits and the
    same uniform count, and a bounded traced peak."""

    R, D = 6, 5

    @pytest.mark.parametrize("sampler", ["normal", "exponential"])
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4), (2, 3, 5)])
    def test_normal_and_exponential_bits(self, sampler, shape):
        if sampler == "normal":
            assert_same_draw(lambda r: r.normal(shape))
        else:
            assert_same_draw(lambda r: r.exponential(0.7, shape))
            assert_same_draw(lambda r: r.exponential(np.full(shape, 2.5), shape))

    def test_exponential_rate_wider_than_shape(self):
        assert_same_draw(lambda r: r.exponential(np.array([0.5, 2.0, 4.0]), (4, 1)))

    @pytest.mark.parametrize("conc_shape", ["scalar", "row", "full"])
    @pytest.mark.parametrize("shape", [None, (4, R, D)])
    @pytest.mark.parametrize("rate", ["scalar", "array"])
    @pytest.mark.parametrize("low", [0.05, 0.6, 1.5])
    def test_gamma_bits(self, conc_shape, shape, rate, low):
        # low < 1 puts some (0.6) or all (0.05) elements on the boost path.
        g = np.random.default_rng(31)
        own = {"scalar": (), "row": (self.R, self.D), "full": (4, self.R, self.D)}[conc_shape]
        conc = low + g.uniform(0.0, 1.0, own)
        rate_v = 2.5 if rate == "scalar" else g.uniform(0.5, 2.0, own)
        for seed in (1, 2, 3):
            assert_same_draw(lambda r: r.gamma(conc, rate_v, shape=shape), seed)

    def test_gamma_rate_wider_than_shape(self):
        assert_same_draw(lambda r: r.gamma(np.array([2.0, 0.5]), np.ones((3, 2)), shape=(2,)))

    def test_gamma_rejects_shape_the_concentration_does_not_broadcast_to(self):
        r = RngStream(0)
        with pytest.raises(ValueError):
            r.gamma(np.full((3,), 2.0), shape=(4, 2))
        with pytest.raises(ValueError):
            r.gamma(np.full((2, 3), 2.0), shape=(3,))
        assert r.uniforms_consumed == 0

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_gamma_peak_memory(self):
        # Concentrations on both sides of 1, so the boost path is included.
        conc = 0.5 + RngStream(4).uniform((2048, 50)) * 2.0
        out, peak = self._peak(lambda: RngStream(3).gamma(conc, 1.5, shape=(10, 2048, 50)))
        assert peak <= 4.0 * out.nbytes

    def test_toy_eval_peak_memory(self):
        model = make_laplace_scale_mixture(50)
        tau = make_gamma_mlp_tau(50, (128, 128, 128), ParamStore(), RngStream(0))
        experiments._toy_eval(model, tau, 10, 16, RngStream(1))     # warm-up
        value, peak = self._peak(lambda: experiments._toy_eval(model, tau, 10, 2048,
                                                               RngStream(2)))
        assert np.isfinite(value)
        assert peak <= 6.0 * (10 * 2048 * 50 * 8)


def test_only_rng_module_touches_numpy_random():
    # Every draw goes through RngStream and its pinned consumption contract.
    pattern = re.compile(r"\b(?:np|numpy)\.random\b|from\s+numpy\s+import[^\n]*\brandom\b")
    modules = sorted(pathlib.Path(hvi.__file__).parent.glob("*.py"))
    assert "rng.py" in [p.name for p in modules]
    offenders = [p.name for p in modules if p.name != "rng.py" and pattern.search(p.read_text())]
    assert offenders == []
