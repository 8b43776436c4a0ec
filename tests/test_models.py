"""Model families: finite models, scale mixture, conjugate pair, mini VAE."""

import math
import os

import numpy as np
import pytest

from hvi import dists, oracle
from hvi.models import (POSITIVE_FLOOR, HeadSpec, UnsupportedModelError, _layer_input,
                        cat_rows, flat_generative, init_mlp_cond, load_params, log_joint,
                        make_discrete_hvm, make_gamma_mlp_tau, make_laplace_scale_mixture,
                        make_mini_vae, make_snr_task, n_rows, posterior_tau, prior_tau,
                        sample_joint, save_params)
from hvi.rng import RngStream
from hvi.tape import NodeId, ParamStore, Tape


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

    def test_code_blocks_match_repeated_codes(self):
        # R codes of z against n*R codes of psi (and the reverse, as the
        # shared SIVI pool scores them) equal the explicitly repeated codes.
        m = oracle.random_finite_model(RngStream(6))
        tau = oracle.random_discrete_tau(RngStream(7), m)
        g = np.random.default_rng(8)
        z, zz = g.integers(0, m.finite.z_size, 3), g.integers(0, m.finite.z_size, 12)
        psi, pp = g.integers(0, m.finite.psi_size, 12), g.integers(0, m.finite.psi_size, 3)
        t = Tape(requires_grad=False)
        for got, want in ((m.log_z_given_psi(z, psi, None, t),
                           m.log_z_given_psi(np.tile(z, 4), psi, None, t)),
                          (m.log_z_given_psi(zz, pp, None, t),
                           m.log_z_given_psi(zz, np.tile(pp, 4), None, t)),
                          (tau.log_prob(psi, z, None, t),
                           tau.log_prob(psi, np.tile(z, 4), None, t))):
            np.testing.assert_array_equal(t.val(got), t.val(want))
        with pytest.raises(ValueError, match=r"\b6 sample rows are not a multiple of the 4 rows"
                                             r" of the shorter code array"):
            m.log_z_given_psi(zz[:4], psi[:6], None, t)

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

    def test_posterior_draws_have_mean_half_x_plus_theta_and_variance_half(self):
        model, _, _ = make_snr_task()
        z = RngStream(1).normal((20000, 10)) * 2.0
        t = Tape(requires_grad=False)
        resid = t.val(model.sample_psi_posterior(z, None, RngStream(2), t)) - 0.5 * (z + 1.0)
        assert abs(resid.mean()) < 0.01
        assert resid.var() == pytest.approx(0.5, abs=0.01)

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
            est = upper_bound_U_joint(model, tau, np.zeros((50000, 0)), 0, RngStream(4), t)
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


def unfused_apply(mlp, t, inputs, extra=None, x=None):
    """MlpCond.apply as a chain of one-op nodes: matmul, add, softplus and
    sigmoid per layer, a per-observation lead through slice_rows of the
    weight and a broadcast add, and each head's blend as mul, sub, mul, add."""
    def p(name):
        return t.param(mlp.store, f"{mlp.prefix}.{name}")

    def lift(v):
        return v if isinstance(v, NodeId) else t.const(v)

    def affine(layer_input, w, b):
        lead, rest = layer_input
        if lead is None:
            return t.add(t.matmul(rest, p(w)), p(b))
        rows, x_rows = n_rows(rest, t), n_rows(lead, t)
        weight = p(w)
        d, d_all = np.shape(t.val(lead))[1], np.shape(t.val(weight))[0]
        per_x = t.add(t.matmul(lead, t.slice_rows(weight, 0, d)), p(b))
        per_sample = t.matmul(rest, t.slice_rows(weight, d, d_all))
        width = np.shape(t.val(per_x))[1]
        return t.reshape(t.add(t.reshape(per_sample, (rows // x_rows, x_rows, width)), per_x),
                         (rows, width))

    tail = [lift(extra)] if extra is not None else []
    blocks = ([lift(x)] if x is not None else []) + [lift(inputs)]
    for i in range(len(mlp.layer_sizes) - 1):
        blocks = [t.softplus(affine(_layer_input(t, blocks + tail), f"w{i}", f"b{i}"))]
    top = _layer_input(t, blocks + tail)
    gate = t.sigmoid(affine(top, "w_gate", "b_gate"))
    out = {"gate": gate}
    for spec in mlp.heads:
        raw = affine(top, f"w_{spec.name}", f"b_{spec.name}")
        val = raw if spec.transform == "identity" else t.add(t.softplus(raw), POSITIVE_FLOOR)
        fb = t.const(np.broadcast_to(np.asarray(spec.fallback, dtype=np.float64), (1, spec.dim)))
        out[spec.name] = t.add(t.mul(gate, val), t.mul(t.sub(1.0, gate), fb))
    return out


class TestFusedMlp:
    """MlpCond.apply's dense and gated_head nodes against the unfused chain:
    the same bits in every output and every leaf adjoint."""

    B, N = 3, 4
    HEADS = (HeadSpec("mean", 3, "identity", 0.3), HeadSpec("stddev", 3, "positive", 1.7),
             HeadSpec("scale", 1, "positive", 0.6))
    # case -> (hidden, inputs rows, x rows or None, extra rows or None)
    CASES = {
        "plain": ((6, 5), "NB", None, None),
        "x_lead": ((6, 5), "NB", "B", None),           # tau: z under per-observation x
        "x_same_rows": ((6, 5), "B", "B", None),       # n = 1: x joins the inputs
        "extra": ((6, 5), "B", None, "NB"),            # encoder: B-row inputs lead, psi extra
        "extra_same_rows": ((6,), "B", None, "B"),
        "no_hidden_lead": ((), "NB", "B", None),        # the heads meet the lead
    }

    def _run(self, case, fused, requires_grad=True):
        hidden, in_rows, x_rows, extra_rows = self.CASES[case]
        rows = {"B": self.B, "NB": self.N * self.B}
        g = np.random.default_rng(31)
        store = ParamStore()
        mlp = init_mlp_cond(store, "net", 4 + (3 if x_rows else 0), hidden, self.HEADS,
                            RngStream(5), extra_dim=2 if extra_rows else 0)
        for name in store.names():           # open the gates, move off the init
            store[name] = store[name] + 0.5 * g.standard_normal(store[name].shape)
        t = Tape(requires_grad=requires_grad)
        in_leaf = t.leaf(g.standard_normal((rows[in_rows], 4)))
        inputs = t.mul(in_leaf, 1.1)
        x = g.standard_normal((rows[x_rows], 3)) if x_rows else None
        ex_leaf = t.leaf(g.standard_normal((rows[extra_rows], 2))) if extra_rows else None
        extra = t.mul(ex_leaf, 0.8) if extra_rows else None
        apply = mlp.apply if fused else lambda *a, **k: unfused_apply(mlp, *a, **k)
        out = apply(t, inputs, extra=extra, x=x)
        values = {k: t.val(v) for k, v in out.items()}
        if not requires_grad:
            return values, None, t
        obj = t.sum(t.mul(out["gate"], 0.3))
        for k in out:
            obj = t.add(obj, t.sum(t.mul(out[k], g.standard_normal(values[k].shape))))
        for later in (inputs, extra):        # consumers after the net, so fan-out order shows
            if later is not None:
                obj = t.add(obj, t.sum(t.mul(later, later)))
        adj = t.backward(obj)
        grads = t.param_grads(adj)
        grads["inputs"] = adj[in_leaf]
        if ex_leaf is not None:
            grads["extra"] = adj[ex_leaf]
        return values, grads, t

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_values_and_leaf_adjoints_are_bitwise_equal(self, case):
        got, got_grads, t = self._run(case, fused=True)
        want, want_grads, _ = self._run(case, fused=False)
        assert not {"matmul", "softplus", "sigmoid", "slice_rows"} & set(t._ops)
        assert t._ops.count("gated_head") == len(self.HEADS)
        assert got.keys() == want.keys() and got_grads.keys() == want_grads.keys()
        for k in want:
            assert got[k].shape == want[k].shape and got[k].tobytes() == want[k].tobytes(), k
        for k in want_grads:
            assert got_grads[k].shape == want_grads[k].shape, k
            assert got_grads[k].tobytes() == want_grads[k].tobytes(), k

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_no_grad_forward_matches_grad_forward(self, case):
        got, _, t = self._run(case, fused=True, requires_grad=False)
        want, _, _ = self._run(case, fused=True)
        assert len(t) == 0
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), k


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


def assert_sample_and_score_matches_separate_paths(tau, z, x, psi0, k=2):
    """sample_and_score with first = psi0 and first = None against k draws,
    then log_prob on [first; draws] with z and x repeated row-aligned.  A
    conditional tau's draws come from its family on explicitly repeated
    parameter rows, any other tau's from its sample."""
    for first in (psi0, None):
        n = k + (first is not None)
        ta = Tape(requires_grad=False)
        psis, lt = tau.sample_and_score(z, x, k, first, RngStream(9), ta)
        tb = Tape(requires_grad=False)
        if tau.family is not None:
            spec = tau.family(*(tb.concat([v] * k) for v in tau.params(z, x, tb)))
            draws = dists.sample_reparam(spec, RngStream(9), tb)
        else:
            draws = tau.sample(z, x, k, RngStream(9), tb)
        psis_b = draws if first is None else cat_rows([first, draws], tb)
        lt_b = tau.log_prob(psis_b, np.tile(z, (n, 1)), np.tile(x, (n, 1)), tb)
        np.testing.assert_allclose(ta.val(psis), tb.val(psis_b), atol=1e-12)
        np.testing.assert_allclose(ta.val(lt), tb.val(lt_b), atol=1e-12)


@pytest.mark.parametrize("case", sorted(TAU_CASES))
class TestConditionalTau:
    """The three conditional_tau factories: Gamma MLP, linear SNR, VAE MLP."""

    def test_sample_and_score_agrees_with_separate_paths(self, case):
        _, q, tau, x = TAU_CASES[case]()
        t0 = Tape(requires_grad=False)
        psi0, z = (t0.val(v) for v in sample_joint(q, x, RngStream(3), t0))
        assert_sample_and_score_matches_separate_paths(tau, z, x, psi0)


class TestMiniVae:
    def test_desk_scale_construction(self):
        vae = make_mini_vae(784, 8, 8, (64, 64), RngStream(0))
        shapes = {name: vae.store[name].shape for name in vae.store.names()}
        assert shapes["dec.w0"] == (8, 64) and shapes["dec.w_logits"] == (64, 784)
        assert shapes["enc.w0"] == (784 + 8, 64) and shapes["enc.w_mean"] == (64 + 8, 8)
        assert shapes["tau.w0"] == (784 + 8, 64) and shapes["tau.w_mean"] == (64, 8)

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
            opt.descend(t.param_grads(t.backward(t.neg(est.node))))
            vals.append(est.value)
        assert np.mean(vals[-10:]) > np.mean(vals[:10]) + 1.0


def _reference_gaussian(t, store, prefix, inputs, extra=None, layers=2):
    """The mini VAE's gated Gaussian MLPs on materialized rows: every layer is
    concat([h, extra]) @ w + b, the first one on x already tiled."""
    def p(name):
        return t.param(store, f"{prefix}.{name}")

    def joined(h):
        return h if extra is None else t.concat([h, extra], axis=1)

    h = t.const(inputs)
    for i in range(layers):
        h = t.softplus(t.add(t.matmul(joined(h), p(f"w{i}")), p(f"b{i}")))
    h = joined(h)
    gate = t.sigmoid(t.add(t.matmul(h, p("w_gate")), p("b_gate")))
    mean = t.add(t.matmul(h, p("w_mean")), p("b_mean"))
    std = t.add(t.softplus(t.add(t.matmul(h, p("w_stddev")), p("b_stddev"))), 1e-6)
    return (t.mul(gate, mean),
            t.add(t.mul(gate, std), t.sub(1.0, gate)))


class TestSampleLayout:
    """x keeps its B rows; conditionals broadcast x-only features over n blocks."""

    @staticmethod
    def _case(n=5):
        vae = make_mini_vae(12, 3, 4, (8, 8), RngStream(1))
        g = np.random.default_rng(2)
        for name in vae.store.names():       # open the gates, move off the init
            vae.store[name] = vae.store[name] + 0.3 * g.standard_normal(vae.store[name].shape)
        x = (g.random((4, 12)) < 0.4).astype(float)
        psi = g.standard_normal((n * 4, 4))
        z = g.standard_normal((n * 4, 3))
        return vae, x, psi, z

    def test_hoisted_densities_and_gradients_match_tiled_reference(self):
        vae, x, psi, z = self._case()
        t = Tape()
        lq = vae.q.log_z_given_psi(t.const(z), t.const(psi), x, t)
        lt = vae.tau.log_prob(t.const(psi), t.const(z), x, t)
        got = t.param_grads(t.backward(t.add(t.sum(lq), t.sum(lt))))

        r = Tape()
        x_tiled = np.tile(x, (5, 1))
        mean, std = _reference_gaussian(r, vae.store, "enc", x_tiled, extra=r.const(psi))
        ref_lq = dists.log_prob(dists.normal(mean, std), r.const(z), r)
        mean, std = _reference_gaussian(r, vae.store, "tau", np.concatenate([x_tiled, z], axis=1))
        ref_lt = dists.log_prob(dists.normal(mean, std), r.const(psi), r)
        want = r.param_grads(r.backward(r.add(r.sum(ref_lq), r.sum(ref_lt))))

        np.testing.assert_allclose(t.val(lq), r.val(ref_lq), rtol=1e-12)
        np.testing.assert_allclose(t.val(lt), r.val(ref_lt), rtol=1e-12)
        assert set(got) == set(want)
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want[name])), err_msg=name)

    def test_sample_rows_must_be_a_multiple_of_x_rows(self):
        vae, x, psi, z = self._case()
        t = Tape(requires_grad=False)
        psi6, z6 = t.const(psi[:6]), t.const(z[:6])
        # The conditioners meet x itself; the likelihood meets x as its value.
        for call, rows in ((lambda: vae.q.log_z_given_psi(z6, psi6, x, t), "x"),
                           (lambda: vae.tau.log_prob(psi6, z6, x, t), "x"),
                           (lambda: vae.gen.log_lik(x, z6, t), "the density's value")):
            with pytest.raises(ValueError, match=rf"\b6 sample rows .* 4 rows of {rows}$"):
                call()


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

    def test_zero_marginal_z_has_no_posterior(self):
        # z = 1 never occurs: posterior_psi raises, posterior_tau falls back to q(psi).
        m = make_discrete_hvm([0.5, 0.5], [[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="z = 1"):
            m.finite.posterior_psi(1)
        t = Tape(requires_grad=False)
        lp = t.val(posterior_tau(m).log_prob(np.array([0, 1]), np.array([1, 1]),
                                             np.zeros((2, 0)), t))
        np.testing.assert_allclose(np.exp(lp), [0.5, 0.5], rtol=1e-15)

    @pytest.mark.parametrize("kind", ["prior", "posterior", "table"])
    def test_derived_sample_and_score_agrees_with_separate_paths(self, kind):
        # tau without a conditioner gets sample_and_score from sample + log_prob.
        rng = RngStream(4)
        m = oracle.random_finite_model(rng, psi_size=3, z_size=3)
        tau = {"prior": prior_tau, "posterior": posterior_tau,
               "table": lambda m: oracle.random_discrete_tau(rng, m)}[kind](m)
        x = np.zeros((5, 0))
        psi0, z = sample_joint(m, x, RngStream(3), Tape(requires_grad=False))
        assert_sample_and_score_matches_separate_paths(tau, z, x, psi0)

    def test_prior_tau_scores_with_model_prior(self):
        m = make_laplace_scale_mixture(2)
        tau = prior_tau(m)
        t = Tape(requires_grad=False)
        psi = np.abs(np.random.default_rng(0).normal(size=(5, 2))) + 0.1
        a = np.asarray(t.val(tau.log_prob(psi, None, np.zeros((5, 0)), t)))
        b = np.asarray(t.val(m.log_psi_prior(psi, np.zeros((5, 0)), t)))
        np.testing.assert_array_equal(a, b)
