"""Model families: finite models, scale mixture, conjugate pair, mini VAE."""

import math
import os

import numpy as np
import pytest

from hvi import dists, oracle
from hvi.bounds import BoundConfig, diwhvi_elbo
from hvi.models import (HeadSpec, UnsupportedModelError, cat_rows, flat_generative,
                        init_mlp_cond, load_params, log_joint, make_discrete_hvm,
                        make_gamma_mlp_tau, make_laplace_scale_mixture, make_mini_vae,
                        make_snr_task, posterior_tau, prior_tau, sample_joint, save_params)
from hvi.rng import RngStream
from hvi.tape import ParamStore, Tape


class TestDiscreteHvm:
    def test_marginal_of_symmetric_mixture(self):
        m = make_discrete_hvm([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]])
        assert float(m.exact_log_marginal(np.array([1]))[0]) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_degenerate_single_component(self):
        m = make_discrete_hvm([1.0], [[0.3, 0.7]])
        assert float(m.exact_log_marginal(np.array([1]))[0]) == pytest.approx(math.log(0.7), abs=1e-12)

    def test_identical_rows_marginal_independent_of_mixture(self):
        for w in ([0.9, 0.1], [0.2, 0.8]):
            m = make_discrete_hvm(w, [[0.4, 0.6], [0.4, 0.6]])
            assert float(m.exact_log_marginal(np.array([0]))[0]) == pytest.approx(math.log(0.4), abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_discrete_hvm([0.5, 0.5], [[0.5, 0.5]])

    def test_joint_is_sum_of_components(self):
        m = make_discrete_hvm([0.4, 0.6], [[0.7, 0.3], [0.1, 0.9]])
        t = Tape(requires_grad=False)
        x = np.zeros((4, 0))
        psi = np.array([0, 0, 1, 1])
        z = np.array([0, 1, 0, 1])
        lj = t.val(log_joint(m, z, psi, x, t))
        expect = np.log([0.4 * 0.7, 0.4 * 0.3, 0.6 * 0.1, 0.6 * 0.9])
        np.testing.assert_allclose(lj, expect, atol=1e-12)

    def test_exact_marginal_agrees_with_enumeration_oracle(self):
        rng = RngStream(42)
        for _ in range(20):
            m = oracle.random_finite_model(rng)
            for z in range(m.finite.z_size):
                direct = math.exp(float(m.exact_log_marginal(np.array([z]))[0]))
                summed = sum(m.finite.joint(i, z) for i in range(m.finite.psi_size))
                assert direct == pytest.approx(summed, abs=1e-8)


class TestLaplaceScaleMixture:
    def test_marginal_at_origin_50d(self):
        m = make_laplace_scale_mixture(50)
        v = float(m.exact_log_marginal(np.zeros((1, 50)))[0])
        assert v == pytest.approx(-50 * math.log(2), abs=1e-9)

    def test_marginal_1d_at_one(self):
        m = make_laplace_scale_mixture(1)
        v = float(m.exact_log_marginal(np.array([[1.0]]))[0])
        assert v == pytest.approx(-math.log(2) - 1.0, abs=1e-12)

    def test_scale_mixture_identity_by_quadrature(self):
        m = make_laplace_scale_mixture(1)

        def log_joint_1d(z, psi):
            t = Tape(requires_grad=False)
            a = t.val(dists.log_prob(dists.normal(0.0, np.sqrt(psi)), z, t))
            b = t.val(dists.log_prob(dists.exponential(0.5), psi, t))
            return a + b

        got = oracle.quadrature_log_marginal(log_joint_1d, 0.7)
        want = float(m.exact_log_marginal(np.array([[0.7]]))[0])
        assert got == pytest.approx(want, abs=1e-8)

    def test_joint_sampling_matches_marginal_moments(self):
        m = make_laplace_scale_mixture(3)
        t = Tape(requires_grad=False)
        _, z = sample_joint(m, np.zeros((200000, 0)), RngStream(3), t)
        zv = t.val(z)
        assert abs(zv.mean()) < 0.02
        assert abs(zv.var() - 2.0) < 0.05      # Laplace(0,1) variance

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            make_laplace_scale_mixture(0)


class TestSnrTask:
    def test_marginal_at_theta(self):
        model, _, _ = make_snr_task()
        theta = np.ones(10)
        v = float(model.exact_log_marginal(theta.reshape(1, 10))[0])
        assert v == pytest.approx(-5 * math.log(4 * math.pi), abs=1e-9)
        assert v == pytest.approx(-12.655, abs=1e-3)

    def test_marginal_matches_per_dimension_quadrature(self):
        model, _, _ = make_snr_task()
        x0 = 0.3

        def log_joint_1d(z, psi):
            # psi plays the latent of one coordinate pair
            t = Tape(requires_grad=False)
            a = t.val(dists.log_prob(dists.normal(psi, 1.0), z, t))
            b = t.val(dists.log_prob(dists.normal(1.0, 1.0), psi, t))
            return a + b

        # integrate over the real line via two half lines
        pos = oracle.log_integral_positive(lambda p: log_joint_1d(x0, p))
        neg = oracle.log_integral_positive(lambda p: log_joint_1d(x0, -p))
        one_dim = np.logaddexp(pos, neg)
        x = np.full(10, x0)
        full = float(model.exact_log_marginal(x.reshape(1, 10))[0])
        assert full == pytest.approx(10 * one_dim, abs=1e-6)

    def test_optimal_tau_mean_is_exact_posterior_mean(self):
        mean, var = oracle.snr_posterior_params(np.full(10, 2.0), np.ones(10))
        np.testing.assert_allclose(mean, 1.5)
        assert var == 0.5

    def test_gap_at_optimal_mean_equals_variance_mismatch_kl(self):
        theta = np.ones(10)
        t = Tape(requires_grad=False)
        eu0 = float(t.val(oracle.snr_exact_expected_u0(0.5 * np.eye(10), 0.5 * theta,
                                                       theta, 2.0 / 3.0, t)))
        # E[log q(x)] for x ~ N(theta, 2I)
        elogq = -0.5 * 10 * math.log(2 * math.pi * 2) - 0.5 * 10
        gap = eu0 - elogq
        want = oracle.gaussian_kl_diag(np.zeros(10), np.sqrt(0.5), np.zeros(10),
                                       np.sqrt(2.0 / 3.0))
        assert gap == pytest.approx(want, abs=1e-12)
        assert gap == pytest.approx(0.188, abs=5e-4)

    def test_exact_u0_gradients_vanish_at_optimum(self):
        store = ParamStore()
        _, _, store = make_snr_task(store, RngStream(0))
        store["snr.A"] = 0.5 * np.eye(10)
        store["snr.b"] = 0.5 * np.ones(10)
        t = Tape()
        node = oracle.snr_exact_expected_u0(t.param(store, "snr.A"), t.param(store, "snr.b"),
                                            np.ones(10), 2.0 / 3.0, t)
        grads = t.param_grads(t.backward(node))
        assert np.linalg.norm(grads["snr.A"]) == 0.0
        assert np.linalg.norm(grads["snr.b"]) == 0.0

    def test_mc_u0_gradients_vanish_at_optimum(self):
        # Monte Carlo over x with the inner z expectation in closed form: the
        # per-x gradient is identically zero at the optimum, so a million-draw
        # average lands well under 1e-3 in norm.
        store = ParamStore()
        _, _, store = make_snr_task(store, RngStream(0))
        store["snr.A"] = 0.5 * np.eye(10)
        store["snr.b"] = 0.5 * np.ones(10)
        theta = np.ones(10)
        x = theta + RngStream(4).normal((10 ** 6, 10)) * np.sqrt(2.0)
        t = Tape()
        per_x = oracle.snr_u0_given_x(t.param(store, "snr.A"), t.param(store, "snr.b"),
                                      theta, 2.0 / 3.0, x, t)
        grads = t.param_grads(t.backward(t.mean(per_x)))
        total = np.concatenate([grads["snr.A"].ravel(), grads["snr.b"]])
        assert np.linalg.norm(total) < 1e-3
        # Consistency: the x average reproduces the fully closed form.
        full = float(Tape(requires_grad=False).val(oracle.snr_exact_expected_u0(
            store["snr.A"], store["snr.b"], theta, 2.0 / 3.0)))
        assert float(t.val(t.mean(per_x))) == pytest.approx(full, abs=0.02)

    def test_plain_mc_u0_gradient_shrinks_at_optimum(self):
        # The plain pathwise estimator keeps sampling noise; check the signal
        # vanishes relative to a perturbed parameter point.
        from hvi.bounds import upper_bound_U_joint
        store = ParamStore()
        model, tau, store = make_snr_task(store, RngStream(0))

        def grad_norm():
            t = Tape()
            est, _ = upper_bound_U_joint(model, tau, np.zeros((50000, 0)), 0, RngStream(4), t)
            g = t.param_grads(t.backward(est.node))
            return np.linalg.norm(np.concatenate([g["snr.A"].ravel(), g["snr.b"]]))

        store["snr.A"] = 0.5 * np.eye(10)
        store["snr.b"] = 0.5 * np.ones(10)
        at_opt = grad_norm()
        store["snr.A"] = 0.6 * np.eye(10)
        store["snr.b"] = 0.3 * np.ones(10)
        away = grad_norm()
        assert at_opt < away / 5.0


class TestMlpCond:
    def test_gate_closed_at_init(self):
        store = ParamStore()
        mlp = init_mlp_cond(store, "net", 4, (16, 16),
                            (HeadSpec("mean", 3, "identity", 0.0),
                             HeadSpec("stddev", 3, "positive", 1.0)), RngStream(0))
        t = Tape(requires_grad=False)
        out = mlp.apply(t, np.random.default_rng(0).normal(0, 3, (100, 4)))
        gate = np.asarray(t.val(out["gate"]))
        assert np.all(gate < 0.01)

    def test_conditional_close_to_fallback_at_init(self):
        # TV distance between N(m, s) and the N(0, 1) fallback, bounded via
        # Pinsker, stays under 0.02 on 100 random inputs.
        store = ParamStore()
        mlp = init_mlp_cond(store, "net", 6, (32, 32),
                            (HeadSpec("mean", 2, "identity", 0.0),
                             HeadSpec("stddev", 2, "positive", 1.0)), RngStream(1))
        t = Tape(requires_grad=False)
        x = np.random.default_rng(1).normal(0, 3, (100, 6))
        out = mlp.apply(t, x)
        mean = np.asarray(t.val(out["mean"]))
        std = np.asarray(t.val(out["stddev"]))
        kl = (np.log(1.0 / std) + (std ** 2 + mean ** 2) / 2.0 - 0.5).sum(axis=1)
        tv = np.sqrt(np.maximum(kl, 0) / 2.0)
        assert np.all(tv < 0.02)

    def test_outputs_finite_and_positive_for_wide_inputs(self):
        store = ParamStore()
        mlp = init_mlp_cond(store, "net", 8, (32, 32),
                            (HeadSpec("mean", 4, "identity", 0.0),
                             HeadSpec("stddev", 4, "positive", 1.0)), RngStream(2))
        t = Tape(requires_grad=False)
        x = np.random.default_rng(2).normal(0, 3, (10000, 8))
        out = mlp.apply(t, x)
        mean = np.asarray(t.val(out["mean"]))
        std = np.asarray(t.val(out["stddev"]))
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))
        assert np.all(std > 0)

    def test_frozen_apply_stops_parameter_gradients(self):
        store = ParamStore()
        mlp = init_mlp_cond(store, "net", 2, (8,),
                            (HeadSpec("mean", 1, "identity", 0.0),), RngStream(3))
        t = Tape()
        out = mlp.apply(t, np.ones((3, 2)), frozen=True)
        obj = t.sum(out["mean"])
        grads = t.param_grads(t.backward(obj))
        assert all(np.all(g == 0) for g in grads.values())


class TestGammaMlpTau:
    def test_initial_tau_matches_exponential_prior(self):
        store = ParamStore()
        tau = make_gamma_mlp_tau(5, (16, 16), store, RngStream(0))
        t = Tape(requires_grad=False)
        z = np.random.default_rng(0).normal(0, 1, (50, 5))
        psi = np.abs(np.random.default_rng(1).normal(0, 1, (50, 5))) + 0.1
        lt = np.asarray(t.val(tau.log_prob(psi, z, np.zeros((50, 0)), t)))
        lp = np.asarray(dists.log_prob_value(dists.exponential(0.5), psi))
        np.testing.assert_allclose(lt, lp, atol=0.05)


def _gamma_case():
    tau = make_gamma_mlp_tau(3, (8,), ParamStore(), RngStream(0))
    return flat_generative(), make_laplace_scale_mixture(3), tau, np.zeros((4, 0))


def _snr_case():
    model, tau, _ = make_snr_task(ParamStore(), RngStream(0))
    return flat_generative(), model, tau, np.zeros((4, 0))


def _vae_case():
    vae = make_mini_vae(12, 3, 3, (8,), RngStream(1))
    x = (np.random.default_rng(0).random((4, 12)) < 0.4).astype(float)
    return vae.gen, vae.q, vae.tau, x


TAU_CASES = {"gamma": _gamma_case, "snr": _snr_case, "vae": _vae_case}


@pytest.mark.parametrize("case", sorted(TAU_CASES))
class TestConditionalTau:
    """The three conditional_tau factories: Gamma MLP, linear SNR, VAE MLP."""

    def test_sample_and_score_agrees_with_separate_paths(self, case):
        _, q, tau, x = TAU_CASES[case]()
        t0 = Tape(requires_grad=False)
        psi0, z = (t0.val(v) for v in sample_joint(q, x, RngStream(3), t0))
        ta = Tape(requires_grad=False)
        psis, lt = tau.sample_and_score(z, x, 2, ta.const(psi0), RngStream(9), ta)
        tb = Tape(requires_grad=False)
        psis_b = cat_rows([tb.const(psi0), tau.sample(z, x, 2, RngStream(9), tb)], tb)
        lt_b = tau.log_prob(tb.val(psis_b), np.tile(z, (3, 1)), np.tile(x, (3, 1)), tb)
        np.testing.assert_allclose(ta.val(psis), tb.val(psis_b), atol=1e-12)
        np.testing.assert_allclose(ta.val(lt), tb.val(lt_b), atol=1e-12)

    def test_stop_params_freezes_tau_in_draws_and_density(self, case):
        # vae-train's dreg estimator relies on this: under tau_stop_params no
        # gradient reaches tau's parameters, not even through the K draws.
        gen, q, tau, x = TAU_CASES[case]()

        def live_params(stop):
            t = Tape()
            est = diwhvi_elbo(gen, q, tau, None, x, BoundConfig(M=2, K=3), RngStream(4), t,
                              tau_stop_params=stop)
            grads = t.param_grads(t.backward(est.node))
            return [n for n in tau.param_names if np.any(grads[n] != 0.0)]

        assert live_params(False)
        assert live_params(True) == []


class TestMiniVae:
    def test_desk_scale_construction(self):
        vae = make_mini_vae(784, 8, 8, (64, 64), RngStream(0))
        assert vae.input_dim == 784 and vae.z_dim == 8 and vae.psi_dim == 8

    def test_encoder_psi_independent_at_init(self):
        vae = make_mini_vae(32, 4, 4, (16, 16), RngStream(1))
        t = Tape(requires_grad=False)
        x = np.random.default_rng(0).random((10, 32))
        psi_a = t.const(np.random.default_rng(1).normal(size=(10, 4)))
        psi_b = t.const(np.random.default_rng(2).normal(size=(10, 4)))
        z = t.const(np.random.default_rng(3).normal(size=(10, 4)))
        la = np.asarray(t.val(vae.q.log_z_given_psi(z, psi_a, x, t)))
        lb = np.asarray(t.val(vae.q.log_z_given_psi(z, psi_b, x, t)))
        np.testing.assert_allclose(la, lb, atol=5e-3)

    def test_bound_improves_under_training(self):
        from hvi.bounds import BoundConfig, diwhvi_elbo
        from hvi.optim import Adam
        vae = make_mini_vae(16, 3, 3, (16,), RngStream(2))
        x = (np.random.default_rng(0).random((64, 16)) < 0.3).astype(float)
        opt = Adam(vae.store, vae.store.names(), lr=3e-3)
        rng = RngStream(5)
        vals = []
        for step in range(150):
            t = Tape()
            est = diwhvi_elbo(vae.gen, vae.q, vae.tau, None, x, BoundConfig(M=1, K=1), rng, t)
            grads = t.param_grads(t.backward(t.neg(est.node)))
            vae.store.zero_grads()
            for n, g in grads.items():
                vae.store.grads[n] += g
            opt.step()
            vals.append(est.value)
        assert np.mean(vals[-10:]) > np.mean(vals[:10]) + 1.0


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        store = ParamStore()
        rng = np.random.default_rng(0)
        store.add("enc.w0", rng.standard_normal((7, 5)))
        store.add("dec.b", rng.standard_normal(11))
        store.add("scalar", 3.14159)
        path = os.path.join(tmp_path, "ck.bin")
        save_params(path, store)
        blocks = load_params(path)
        assert set(blocks) == {"enc.w0", "dec.b", "scalar"}
        for name in blocks:
            assert np.array_equal(blocks[name], store[name])
            assert blocks[name].dtype == np.float64

    def test_truncation_reports_offset(self, tmp_path):
        store = ParamStore()
        store.add("w", np.arange(6.0).reshape(2, 3))
        path = os.path.join(tmp_path, "ck.bin")
        save_params(path, store)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-9])
        with pytest.raises(ValueError, match="byte"):
            load_params(path)


class TestTauAdapters:
    def test_posterior_tau_requires_finite_model(self):
        m = make_laplace_scale_mixture(2)
        with pytest.raises(UnsupportedModelError):
            posterior_tau(m)

    def test_prior_tau_scores_with_model_prior(self):
        m = make_laplace_scale_mixture(2)
        tau = prior_tau(m)
        t = Tape(requires_grad=False)
        psi = np.abs(np.random.default_rng(0).normal(size=(5, 2))) + 0.1
        a = np.asarray(t.val(tau.log_prob(psi, None, np.zeros((5, 0)), t)))
        b = np.asarray(t.val(m.log_psi_prior(psi, np.zeros((5, 0)), t)))
        np.testing.assert_array_equal(a, b)
