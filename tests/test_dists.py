"""Densities, reparameterized samplers, implicit Gamma gradients, enumeration."""

import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy import special as sps

from hvi import dists, oracle, special
from hvi.dists import UnsupportedKindError
from hvi.rng import RngStream
from hvi.tape import NodeId, Tape


def lp(dist, value):
    return float(dists.log_prob_value(dist, value))


class TestLogProb:
    def test_standard_normal_at_zero(self):
        assert lp(dists.normal(0, 1), 0.0) == pytest.approx(-0.918939, abs=1e-6)

    def test_exponential_half_at_two(self):
        assert lp(dists.exponential(0.5), 2.0) == pytest.approx(math.log(0.5) - 1.0, abs=1e-12)

    def test_matches_scipy_across_kinds(self):
        rng = np.random.default_rng(0)
        x = rng.random(50) * 3 + 0.1
        np.testing.assert_allclose(dists.log_prob_value(dists.normal(0.3, 1.7), x),
                                   stats.norm.logpdf(x, 0.3, 1.7), rtol=1e-12)
        np.testing.assert_allclose(dists.log_prob_value(dists.exponential(1.3), x),
                                   stats.expon.logpdf(x, scale=1 / 1.3), rtol=1e-12)
        np.testing.assert_allclose(dists.log_prob_value(dists.gamma(2.5, 1.5), x),
                                   stats.gamma.logpdf(x, 2.5, scale=1 / 1.5), rtol=1e-12)

    def test_vector_params_sum_over_last_axis(self):
        mean = np.array([0.0, 1.0])
        val = np.array([[0.0, 1.0], [1.0, 1.0]])
        out = dists.log_prob_value(dists.normal(mean, 1.0), val)
        expect = stats.norm.logpdf(val, mean, 1.0).sum(axis=1)
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_bernoulli_logits_form_and_gradient_across_range(self):
        # x*l - softplus(l) against x*log sigmoid(l) + (1-x)*log sigmoid(-l),
        # for |l| up to 700 and grey-level x, with no floating-point warning.
        l = np.concatenate([np.linspace(-700, 700, 141), np.linspace(-40, 40, 321)])
        for level in (0.0, 1.0, 0.3):
            x = np.full_like(l, level)
            want = x * sps.log_expit(l) + (1.0 - x) * sps.log_expit(-l)
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                t = Tape()
                leaf = t.leaf(l)
                out = dists.log_prob(dists.bernoulli(logits=leaf), x, t)
                g = np.asarray(t.backward(t.sum(out))[leaf])
            np.testing.assert_allclose(t.val(out), want, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(g, x - sps.expit(l), rtol=1e-12, atol=1e-15)

    def test_support_violations_raise(self):
        with pytest.raises(ValueError):
            lp(dists.gamma(2, 1), -0.5)
        with pytest.raises(ValueError):
            lp(dists.exponential(1.0), -0.1)

    def test_invariant_violations_raise_at_construction(self):
        with pytest.raises(ValueError):
            dists.normal(0, -1.0)


NORMALIZATION_CASES = [
    dists.exponential(0.7),
    dists.gamma(2.3, 1.4),
    dists.gamma(0.6, 0.5),
]


@pytest.mark.parametrize("dist", NORMALIZATION_CASES)
def test_positive_support_densities_normalize(dist):
    logf = lambda psi: dists.log_prob_value(dist, psi)
    total = oracle.log_integral_positive(logf, tol=1e-10)
    assert total == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("dist", [dists.normal(0.4, 1.3)])
def test_real_support_densities_normalize(dist):
    half_pos = oracle.log_integral_positive(lambda x: dists.log_prob_value(dist, x))
    half_neg = oracle.log_integral_positive(lambda x: dists.log_prob_value(dist, -x))
    total = np.logaddexp(half_pos, half_neg)
    assert total == pytest.approx(0.0, abs=1e-6)


class TestSampling:
    def test_normal_location_scale_partials(self):
        t = Tape()
        mu, sigma = t.leaf(0.7), t.leaf(1.2)
        rng = RngStream(3)
        s = dists.sample_reparam(dists.normal(mu, sigma), rng, t)
        eps = (float(t.val(s)) - 0.7) / 1.2
        g = t.backward(s)
        assert float(g[NodeId(mu.index)]) == pytest.approx(1.0)
        assert float(g[NodeId(sigma.index)]) == pytest.approx(eps)

    def test_exponential_closed_form_pathwise(self):
        t = Tape()
        rate = t.leaf(2.0)
        s = dists.sample_reparam(dists.exponential(rate), RngStream(5), t)
        val = float(t.val(s))
        g = float(t.backward(s)[NodeId(rate.index)])
        assert g == pytest.approx(-val / 2.0, rel=1e-12)

    def test_discrete_kinds_unsupported(self):
        with pytest.raises(UnsupportedKindError):
            dists.sample_reparam(dists.bernoulli(logits=0.0), RngStream(0), Tape())

    def test_moments_match_analytic(self):
        n = 10 ** 6
        rng = RngStream(17)
        t = Tape(requires_grad=False)
        cases = [
            (dists.normal(0.5, 1.5), 0.5, 2.25),
            (dists.exponential(0.5), 2.0, 4.0),
            (dists.gamma(2.0, 1.0), 2.0, 2.0),
        ]
        for dist, mean, var in cases:
            s = t.val(dists.sample_reparam(dist, rng, t, shape=(n,)))
            se_m = math.sqrt(var / n)
            assert abs(s.mean() - mean) < 4 * se_m
            kurt_bound = 12 * var / math.sqrt(n)   # loose 4-se scale for the variance
            assert abs(s.var() - var) < max(4 * kurt_bound, 0.02)


def pathwise_moment_grad(dist_builder, param0, f, n, seed):
    """d/dtheta E[f(sample)] by the tape, averaged over n draws."""
    t = Tape()
    p = t.leaf(param0)
    s = dists.sample_reparam(dist_builder(t, p), RngStream(seed), t, shape=(n,))
    obj = t.mean(f(t, s))
    g = t.backward(obj)[NodeId(p.index)]
    per = None
    return float(g), per


class TestPathwiseMomentGradients:
    N = 200_000

    @pytest.mark.parametrize("builder,param0,d_mean,d_second", [
        (lambda t, p: dists.normal(p, 1.0), 0.4, 1.0, lambda m: 2 * m),       # E[x]=m, E[x^2]=m^2+1
        (lambda t, p: dists.normal(0.0, p), 1.3, 0.0, lambda s: 2 * s),       # E[x^2]=s^2
        (lambda t, p: dists.exponential(p), 1.5, -1 / 1.5 ** 2, lambda r: -4 / r ** 3),
        (lambda t, p: dists.gamma(p, 1.0), 2.0, 1.0, lambda a: 2 * a + 1),    # E[x^2]=a(a+1)
    ])
    def test_first_and_second_moments(self, builder, param0, d_mean, d_second):
        g1, _ = pathwise_moment_grad(builder, param0, lambda t, s: s, self.N, 11)
        g2, _ = pathwise_moment_grad(builder, param0, lambda t, s: t.mul(s, s), self.N, 12)
        tol1 = max(4 * 4.0 / math.sqrt(self.N), 5e-3)
        tol2 = max(4 * 40.0 / math.sqrt(self.N), 5e-2)
        assert g1 == pytest.approx(d_mean, abs=tol1)
        expected2 = d_second(param0)
        assert g2 == pytest.approx(expected2, abs=tol2)

    def test_gamma_mean_gradient_example(self):
        # E[sample] = concentration / rate; d/dconcentration = 1.
        g, _ = pathwise_moment_grad(lambda t, p: dists.gamma(p, 1.0), 2.0,
                                    lambda t, s: s, 100_000, 31)
        assert g == pytest.approx(1.0, abs=3 * 1.5 / math.sqrt(100_000) + 2e-3)


class TestGammaImplicitGrad:
    def test_rate_derivative_exact(self):
        dda, ddr = dists.gamma_implicit_grad(2.0, 3.0, 1.1)
        assert float(ddr) == pytest.approx(-1.1 / 3.0, rel=1e-14)

    def test_concentration_one_matches_quantile_fd(self):
        a, r, s = 1.0, 1.0, 0.9
        u = float(special.gammainc_p(a, r * s))
        h = 1e-5
        fd = float(oracle.gamma_ppf_unit(a + h, u) - oracle.gamma_ppf_unit(a - h, u)) / (2 * h)
        dda, _ = dists.gamma_implicit_grad(a, r, s)
        assert float(dda) == pytest.approx(fd, abs=1e-4)

    def test_at_gamma_3_2_median(self):
        a, r = 3.0, 2.0
        s = float(oracle.gamma_ppf_unit(a, 0.5)) / r
        u = 0.5
        h = 1e-5
        fd = float(oracle.gamma_ppf_unit(a + h, u) - oracle.gamma_ppf_unit(a - h, u)) / (2 * h) / r
        dda, ddr = dists.gamma_implicit_grad(a, r, s)
        assert float(dda) == pytest.approx(fd, rel=1e-3)
        assert float(ddr) == pytest.approx(-s / r, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            dists.gamma_implicit_grad(2.0, 1.0, -1.0)

    @pytest.mark.parametrize("a,r,s", [(math.nan, 1.0, 0.5), (2.0, math.inf, 0.5),
                                       (2.0, 1.0, math.nan), (math.inf, 1.0, 0.5)])
    def test_rejects_non_finite(self, a, r, s):
        with pytest.raises(ValueError, match="finite"):
            dists.gamma_implicit_grad(np.array([a, 1.0]), r, np.array([s, 0.5]))

    @staticmethod
    def _reference(a, x):
        """d(sample)/d(concentration) at rate 1 as -(dP/da) / pdf(x), where
        dP/da = int_0^x t^(a-1) e^-t log t dt / Gamma(a) - P psi(a), or minus the
        upper-tail counterpart for x > a + 1, by scipy quadrature.  The integrand
        is divided by pdf(x) up front so nothing under- or overflows."""
        lg = sps.gammaln(a)
        log_pdf = (a - 1.0) * math.log(x) - x - lg
        quad = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        if x > a + 1.0:
            f = lambda t: math.exp((a - 1.0) * math.log(t) - t - lg - log_pdf) * math.log(t)
            tail, _ = integrate.quad(f, x, math.inf, **quad)
            return tail - sps.gammaincc(a, x) * math.exp(-log_pdf) * sps.digamma(a)
        if a < 1.0:
            # t^(a-1) log t as quad's algebraic-logarithmic weight at t = 0.
            w = lambda t: math.exp(-t - lg - log_pdf)
            head, _ = integrate.quad(w, 0.0, x, weight="alg-loga", wvar=(a - 1.0, 0.0), **quad)
        else:
            f = lambda t: math.exp((a - 1.0) * math.log(t) - t - lg - log_pdf) * math.log(t)
            head, _ = integrate.quad(f, 0.0, x, **quad)
        return -(head - sps.gammainc(a, x) * math.exp(-log_pdf) * sps.digamma(a))

    @pytest.mark.parametrize("a,x", [(a, x) for a in (0.05, 1.0, 200.0)
                                     for x in ((a + 1) / 2, a + 1 - 1e-9, a + 1 + 1e-9,
                                               1.5 * (a + 1))] + [(1.0, 30.0)])
    def test_matches_quadrature_reference(self, a, x):
        # Both sides of the series / continued-fraction switch at x = a + 1,
        # and a far-tail point where P(a, x) rounds to 1.
        r = 2.5
        dda, _ = dists.gamma_implicit_grad(a, r, x / r)
        assert float(dda) * r == pytest.approx(self._reference(a, x), rel=1e-10)
