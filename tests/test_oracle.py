"""Oracle machinery itself: enumeration, quadrature, finite differences."""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from hvi import dists, oracle
from hvi.bounds import sharot_coeff
from hvi.models import (ExplicitPrior, Generative, HierarchicalPrior, UnsupportedModelError,
                        make_discrete_hvm, make_discrete_tau, make_laplace_scale_mixture,
                        posterior_tau, prior_tau)
from hvi.oracle import QuadratureError
from hvi.rng import RngStream
from hvi.tape import Tape

TWO_POINT = make_discrete_hvm([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]])


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
        # C(203, 3) = 1,373,701 count vectors of 200 draws over 4 outcomes.
        m = make_discrete_hvm([0.25] * 4, [[0.5, 0.5]] * 4)
        tau = prior_tau(m)
        with pytest.raises(ValueError, match="budget"):
            oracle.exact_expected_bound(m, tau, 0, 200, "U")

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


# ---------------------------------------------------------------------------
# Brute-force references: every ordered tuple of draws (itertools.product)
# ---------------------------------------------------------------------------

def _lme(a):
    return float(special.logsumexp(a) - math.log(len(a)))


def _tables(model, tau, z):
    """(log tau(psi | z), log q(psi, z), q(psi | z)) over every psi code."""
    info = model.finite
    s = info.psi_size
    t = Tape(requires_grad=False)
    lt = np.asarray(t.val(tau.log_prob(np.arange(s), np.full(s, z), np.zeros((s, 0)), t)))
    joint = info.psi_probs * info.z_given_psi[:, z]
    with np.errstate(divide="ignore"):
        return lt, np.log(joint), joint / joint.sum()


def _mean_term(lt, lj, draws, first):
    """(probability, log mean weight) of ordered draws, psi_0 = first appended."""
    slots = list(draws) + ([] if first is None else [first])
    p = math.exp(lt[list(draws)].sum())
    return p, (_lme(lj[slots] - lt[slots]) if p > 0 else 0.0)


def _first_slots(post):
    """(psi_0, q(psi_0 | z)) over the posterior's support."""
    return [(j, post[j]) for j in range(len(post)) if post[j] > 0]


def ref_bound(model, tau, z, K, kind):
    if isinstance(kind, tuple):
        return sum(sharot_coeff(K, kind[1], j) * ref_bound(model, tau, z, K - j, "U")
                   for j in range(kind[1] + 1))
    lt, lj, post = _tables(model, tau, z)
    total = 0.0
    for draws in itertools.product(range(len(lt)), repeat=K):
        for j, pj in _first_slots(post) if kind == "U" else [(None, 1.0)]:
            p, v = _mean_term(lt, lj, draws, j)
            total += pj * p * v
    return total


def ref_kl(q, p, tau, rho, K, L, upper):
    total = 0.0
    for z in range(q.finite.z_size):
        ltq, ljq, postq = _tables(q, tau, z)
        ltp, ljp, postp = _tables(p, rho, z)
        for ks in itertools.product(range(len(ltq)), repeat=K):
            for ls in itertools.product(range(len(ltp)), repeat=L):
                for j, pj in _first_slots(postq if upper else postp):
                    pk, num = _mean_term(ltq, ljq, ks, j if upper else None)
                    pl, den = _mean_term(ltp, ljp, ls, None if upper else j)
                    total += q.finite.marginal(z) * pj * pk * pl * (num - den)
    return total


def ref_elbo(gen, q, tau, rho, M, K, L):
    t = Tape(requires_grad=False)
    probs, vals = [], []
    for z in range(q.finite.z_size):
        lt, lj, post = _tables(q, tau, z)
        lik = float(np.asarray(t.val(gen.log_lik(np.zeros((1, 0)), np.array([z]), t)))[0])
        if isinstance(gen.prior, ExplicitPrior):
            priors = [(1.0, float(np.asarray(t.val(gen.prior.log_prob(np.array([z]), t)))[0]))]
        else:
            lr, ljp, _ = _tables(gen.prior.model, rho, z)
            priors = [_mean_term(lr, ljp, ls, None)
                      for ls in itertools.product(range(len(lr)), repeat=L)]
        for j, pj in _first_slots(post):
            for ks in itertools.product(range(len(lt)), repeat=K):
                pk, den = _mean_term(lt, lj, ks, j)
                for pl, prior in priors:
                    probs.append(q.finite.marginal(z) * pj * pk * pl)
                    vals.append(lik + prior - den)
    probs, vals = np.array(probs), np.array(vals)
    idx = np.array(list(itertools.product(range(len(probs)), repeat=M)))
    return float(np.sum(np.prod(probs[idx], axis=1) * (special.logsumexp(vals[idx], axis=1)
                                                       - math.log(M))))


# q(psi=2) = 0 and q(z=0 | psi=1) = 0; tau misses psi=1 at z=0, where q(psi, z)
# is 0, and draws psi=2, whose weight is 0.
ZERO_MODEL = make_discrete_hvm([0.5, 0.5, 0.0], [[0.8, 0.2], [0.0, 1.0], [0.5, 0.5]])
ZERO_TAU = make_discrete_tau(ZERO_MODEL, probs=[[0.6, 0.0, 0.4], [0.3, 0.3, 0.4]])


def _small_cases():
    rng = RngStream(2024)
    cases = [(ZERO_MODEL, ZERO_TAU), (ZERO_MODEL, posterior_tau(ZERO_MODEL))]
    for _ in range(4):
        m = oracle.random_finite_model(rng, psi_size=2 + int(rng.uniform() * 2), z_size=2)
        cases.append((m, oracle.random_discrete_tau(rng, m)))
    return cases


class TestCountVectors:
    @pytest.mark.parametrize("n,s", [(0, 3), (1, 1), (5, 3), (64, 4)])
    def test_every_count_vector_once_with_multinomial_weight(self, n, s):
        counts, log_coef = oracle._count_vectors(n, s)
        assert counts.shape == (math.comb(n + s - 1, n), s)
        assert np.all(counts.sum(axis=1) == n)
        assert len({tuple(c) for c in counts}) == len(counts)
        # sum over vectors of n!/prod c_i! = s^n
        assert special.logsumexp(log_coef) == pytest.approx(n * math.log(s), rel=1e-12, abs=1e-12)

    def test_bound_matches_tuple_reference(self):
        for m, tau in _small_cases():
            for K in range(4):
                kinds = ["U"] + (["L", ("J", 1)] if K >= 1 else [])
                for kind in kinds:
                    got = oracle.exact_expected_bound(m, tau, 0, K, kind)
                    want = ref_bound(m, tau, 0, K, kind)
                    # L is -inf where all K draws can have weight 0 (ZERO_TAU)
                    assert np.isfinite(got) or kind == "L"
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-14), (kind, K)

    def test_kl_matches_tuple_reference(self):
        cases = _small_cases()[1:]      # ZERO_TAU's zero weights would make the KL infinite
        for (q, tau), (p, rho) in zip(cases, cases[1:] + cases[:1]):
            for K, L in ((1, 1), (2, 1), (1, 3), (3, 2)):
                for upper in (True, False):
                    fn = oracle.exact_expected_kl_upper if upper else oracle.exact_expected_kl_lower
                    got = fn(q, p, tau, rho, K, L)
                    want = ref_kl(q, p, tau, rho, K, L, upper)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-14), (K, L, upper)

    def test_elbo_matches_tuple_reference(self):
        lik = lambda x, z, t: t.const(np.log([0.3, 0.6])[np.asarray(z, dtype=np.int64)])
        explicit = Generative(log_lik=lik, prior=ExplicitPrior(
            log_prob=lambda z, t: t.const(np.log([0.45, 0.55])[np.asarray(z, dtype=np.int64)])))
        p_model = make_discrete_hvm([0.6, 0.4], [[0.5, 0.5], [0.2, 0.8]])
        hier = Generative(log_lik=lik, prior=HierarchicalPrior(model=p_model))
        rho = oracle.random_discrete_tau(RngStream(3), p_model)
        for q, tau in _small_cases()[:4]:
            for gen, M, K, L in ((explicit, 1, 2, 1), (explicit, 3, 1, 1), (explicit, 2, 0, 1),
                                 (hier, 1, 1, 2), (hier, 2, 1, 1)):
                got = oracle.exact_expected_elbo(gen, q, tau, rho, M, K, L)
                want = ref_elbo(gen, q, tau, rho, M, K, L)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14), (M, K, L)

    def test_tau_must_cover_the_posterior(self):
        tau = make_discrete_tau(ZERO_MODEL, probs=[[0.0, 0.6, 0.4], [0.3, 0.3, 0.4]])
        with pytest.raises(ValueError, match="does not cover"):
            oracle.exact_expected_bound(ZERO_MODEL, tau, 0, 2, "U")

    def test_sandwich_monotonicity_and_jackknife_to_k64(self):
        rng = RngStream(64)
        for _ in range(4):
            m = oracle.random_finite_model(rng, psi_size=4)
            tau = oracle.random_discrete_tau(rng, m)
            logq = oracle.exact_log_marginal_finite(m, 0)
            Ks = (0, 1, 2, 4, 8, 16, 32, 64)
            us = [oracle.exact_expected_bound(m, tau, 0, K, "U") for K in Ks]
            ls = [oracle.exact_expected_bound(m, tau, 0, K, "L") for K in Ks[1:]]
            assert all(u >= logq - 1e-10 for u in us) and all(v <= logq + 1e-10 for v in ls)
            assert all(b <= a + 1e-12 for a, b in zip(us, us[1:]))
            assert all(b >= a - 1e-12 for a, b in zip(ls, ls[1:]))
            ej = oracle.exact_expected_bound(m, tau, 0, 64, ("J", 1))
            assert abs(ej - logq) < abs(us[-1] - logq)


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
        from hvi.tape import NodeId
        g = t.backward(out)[NodeId(leaf.index)]
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
