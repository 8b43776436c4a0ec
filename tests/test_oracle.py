"""Oracle machinery itself: enumeration, quadrature, finite differences."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from hvi import dists, oracle
from hvi.models import UnsupportedModelError, make_discrete_hvm, make_laplace_scale_mixture, posterior_tau, prior_tau
from hvi.oracle import FiniteSupport, QuadratureError
from hvi.rng import RngStream
from hvi.tape import Tape

TWO_POINT = make_discrete_hvm([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]])


class TestFiniteSupport:
    def test_probabilities_must_normalize(self):
        with pytest.raises(ValueError):
            FiniteSupport(points=(0, 1), probs=(0.5, 0.4))

    def test_points_must_be_distinct(self):
        with pytest.raises(ValueError):
            FiniteSupport(points=(0, 0), probs=(0.5, 0.5))


class TestExactExpectedBound:
    def test_two_point_hand_values(self):
        tau = prior_tau(TWO_POINT)
        assert oracle.exact_expected_bound(TWO_POINT, tau, 1, 0, "U") == pytest.approx(-0.500402, abs=1e-6)
        assert oracle.exact_expected_bound(TWO_POINT, tau, 1, 1, "L") == pytest.approx(-0.916291, abs=1e-6)

    def test_posterior_tau_exact_for_all_kinds(self):
        tau = posterior_tau(TWO_POINT)
        logq = math.log(0.5)
        for K in (0, 1, 3):
            assert oracle.exact_expected_bound(TWO_POINT, tau, 1, K, "U") == pytest.approx(logq, abs=1e-12)
        for K in (1, 2):
            assert oracle.exact_expected_bound(TWO_POINT, tau, 1, K, "L") == pytest.approx(logq, abs=1e-12)
        assert oracle.exact_expected_bound(TWO_POINT, tau, 1, 3, ("J", 1)) == pytest.approx(logq, abs=1e-12)

    def test_budget_guard(self):
        m = make_discrete_hvm([0.25] * 4, [[0.5, 0.5]] * 4)
        tau = prior_tau(m)
        with pytest.raises(ValueError, match="budget"):
            oracle.exact_expected_bound(m, tau, 0, 11, "U")

    def test_requires_finite_model(self):
        m = make_laplace_scale_mixture(1)
        with pytest.raises(UnsupportedModelError):
            oracle.exact_expected_bound(m, prior_tau(m), 0, 1, "U")

    def test_monotone_and_above_marginal_on_random_models(self):
        # property sweep over 200 generated instances
        rng = RngStream(12345)
        for i in range(200):
            m = oracle.random_finite_model(rng)
            tau = oracle.random_discrete_tau(rng, m)
            logq = oracle.exact_log_marginal_finite(m, 0)
            prev = None
            for K in range(5):
                e = oracle.exact_expected_bound(m, tau, 0, K, "U")
                assert e >= logq - 1e-10
                if prev is not None:
                    assert e <= prev + 1e-10
                prev = e


class TestQuadrature:
    def test_laplace_identity_at_origin(self):
        def lj(z, psi):
            return (-0.5 * np.log(2 * np.pi * psi) - z * z / (2 * psi)
                    + np.log(0.5) - 0.5 * psi)

        assert oracle.quadrature_log_marginal(lj, 0.0) == pytest.approx(math.log(0.5), abs=1e-9)

    def test_laplace_identity_off_origin(self):
        def lj(z, psi):
            return (-0.5 * np.log(2 * np.pi * psi) - z * z / (2 * psi)
                    + np.log(0.5) - 0.5 * psi)

        assert oracle.quadrature_log_marginal(lj, 1.5) == pytest.approx(-math.log(2) - 1.5, abs=1e-8)

    def test_narrow_gamma_prior_approaches_fixed_variance(self):
        # Gamma(1e4, 1e4) concentrates at psi = 1: the mixture collapses to N(z | 0, 1).
        conc = 1e4

        def lj(z, psi):
            t = Tape(requires_grad=False)
            a = np.asarray(t.val(dists.log_prob(dists.normal(0.0, np.sqrt(psi)), z, t)))
            b = np.asarray(t.val(dists.log_prob(dists.gamma(conc, conc), psi, t)))
            return a + b

        got = oracle.quadrature_log_marginal(lj, 0.8)
        want = float(stats.norm.logpdf(0.8))
        assert got == pytest.approx(want, abs=1e-4)

    def test_against_scipy_quad(self):
        def lj(z, psi):
            return (-0.5 * np.log(2 * np.pi * psi) - z * z / (2 * psi)
                    + np.log(0.5) - 0.5 * psi)

        ours = oracle.quadrature_log_marginal(lj, 0.9)
        ref, _ = integrate.quad(lambda p: np.exp(lj(0.9, p)), 0, np.inf)
        assert ours == pytest.approx(math.log(ref), abs=1e-9)

    def test_agrees_with_riemann_discretization(self):
        def lj(z, psi):
            return (-0.5 * np.log(2 * np.pi * psi) - z * z / (2 * psi)
                    + np.log(0.5) - 0.5 * psi)

        grid = np.linspace(1e-6, 40.0, 10 ** 4)
        riemann = np.trapezoid(np.exp(lj(0.7, grid)), grid)
        ours = oracle.quadrature_log_marginal(lj, 0.7)
        assert math.exp(ours) == pytest.approx(riemann, abs=1e-4)

    def test_nonconvergence_reports_achieved_tolerance(self):
        # A pathological oscillatory integrand cannot reach 1e-15.
        def bad(psi):
            return np.where(psi < 1e280, np.log1p(np.abs(np.sin(1e6 * psi))), 0.0)

        with pytest.raises(QuadratureError) as err:
            oracle.log_integral_positive(bad, tol=1e-15, max_level=3)
        assert err.value.achieved > 0


class TestFiniteDiff:
    def test_quadratic_norm(self):
        got = oracle.finite_diff(lambda v: float(np.sum(v ** 2)), np.array([1.0, 2.0]))
        np.testing.assert_allclose(got, [2.0, 4.0], atol=1e-8)

    def test_constant_function(self):
        got = oracle.finite_diff(lambda v: 3.5, np.array([0.3, -1.0, 2.0]))
        np.testing.assert_array_equal(got, np.zeros(3))

    def test_agrees_with_backward_on_recorded_function(self):
        x0 = np.array([0.6, 1.8, 0.4])

        def build(v):
            t = Tape()
            leaf = t.leaf(v)
            out = t.logsumexp(t.mul(t.softplus(leaf), t.const(np.array([1.0, -2.0, 0.5]))))
            return t, leaf, out

        t, leaf, out = build(x0)
        from hvi.tape import NodeId, backward
        g = backward(t, out)[NodeId(leaf.index)]
        fd = oracle.finite_diff(lambda v: float(build(v)[0].val(build(v)[2])), x0)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)


class TestGaussianIdentities:
    def test_kl_standard_pair(self):
        assert oracle.gaussian_kl_diag(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_snr_posterior_at_theta(self):
        theta = np.ones(10)
        mean, var = oracle.snr_posterior_params(theta, theta)
        np.testing.assert_allclose(mean, theta)
        assert var == 0.5

    def test_variance_ratio_kl_per_dimension(self):
        per_dim = oracle.gaussian_kl_diag(0.0, math.sqrt(0.5), 0.0, math.sqrt(2.0 / 3.0))
        assert per_dim == pytest.approx(0.5 * (0.75 + math.log(4.0 / 3.0) - 1.0), abs=1e-12)
        assert per_dim == pytest.approx(0.0188410, abs=1e-6)

    def test_convolution_marginal(self):
        theta = np.ones(10)
        x = theta + 0.3
        want = float(np.sum(stats.norm.logpdf(x, theta, np.sqrt(2.0))))
        assert oracle.snr_marginal_logpdf(x, theta) == pytest.approx(want, abs=1e-10)


class TestRandomModelGenerator:
    def test_probability_floors(self):
        rng = RngStream(7)
        for _ in range(50):
            m = oracle.random_finite_model(rng)
            assert np.all(m.finite.psi_probs >= 0.009)
            assert np.all(m.finite.z_given_psi >= 0.009)
            assert 2 <= m.finite.psi_size <= 4
            assert 2 <= m.finite.z_size <= 4
