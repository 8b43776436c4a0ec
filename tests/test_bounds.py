"""Estimator semantics: sandwich structure, special cases, KL bounds, jackknife."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hvi import bounds, dists, oracle, special
from hvi.bounds import (BoundConfig, diwhvi_elbo, eval_variants,
                        effective_sample_size, expected_kl_tau_prior, iwhvi_elbo,
                        jackknife_U, kl_lower_bound, kl_upper_bound, lower_bound_L,
                        omega_sample, sharot_coeff, sivi_elbo, sivi_reused,
                        upper_bound_U, upper_bound_U_joint)
from hvi.models import (AuxiliaryInference, ExplicitPrior, Generative,
                        HierarchicalModel, HierarchicalPrior, MlpCond, UnsupportedModelError,
                        log_joint, make_discrete_hvm, make_discrete_tau, make_gamma_mlp_tau,
                        make_laplace_scale_mixture, make_mini_vae, n_rows, posterior_tau,
                        prior_tau, sample_joint)
from hvi.rng import RngStream
from hvi.tape import ParamStore, Tape

TWO_POINT = make_discrete_hvm([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]])
X1 = np.zeros((1, 0))


def discrete_gen(lik, prior_probs):
    lik = np.log(np.asarray(lik, dtype=np.float64))
    pz = np.log(np.asarray(prior_probs, dtype=np.float64))
    return Generative(
        log_lik=lambda x, z, t: t.const(lik[np.asarray(z, dtype=np.int64)]),
        prior=ExplicitPrior(log_prob=lambda z, t: t.const(pz[np.asarray(z, dtype=np.int64)])))


def true_log_px(lik, prior_probs):
    return math.log(float(np.dot(lik, prior_probs)))


def gaussian_wrap(mean, std, dim=1):
    """Explicit Gaussian as a trivial hierarchy: psi is an independent dummy."""
    dummy = dists.normal(0.0, 1.0)

    def sample_psi(x, rows, rng, t):
        return t.const(rng.normal((rows, dim)))

    def sample_z(psi, x, rng, t):
        return t.const(mean + std * rng.normal((np.shape(t.val(psi))[0], dim)))

    def log_psi_prior(psi, x, t):
        return dists.log_prob(dummy, psi, t)

    def log_z(z, psi, x, t):
        # One value per psi row: a mean that carries psi's rows (times 0)
        # meets z's rows block-wise in dists.log_prob.
        return dists.log_prob(dists.normal(t.add(mean, t.mul(0.0, psi)), std), z, t)

    def sample_psi_posterior(z, x, rng, t):
        return t.const(rng.normal((np.asarray(t.val(z)).shape[0], dim)))

    return HierarchicalModel(sample_psi=sample_psi,
                             sample_z=sample_z, log_psi_prior=log_psi_prior,
                             log_z_given_psi=log_z,
                             sample_psi_posterior=sample_psi_posterior)


def wrap_tau(dim=1):
    d = dists.normal(0.0, 1.0)

    def log_prob(psi, z, x, t):
        return dists.log_prob(d, psi, t)

    def sample(z, x, k, rng, t):
        rows = np.asarray(t.val(z) if hasattr(z, "index") else z).shape[0]
        return t.const(rng.normal((k * rows, dim)))

    return AuxiliaryInference(log_prob=log_prob, sample=sample)


class TestUpperBound:
    def test_expected_u0_matches_hand_enumeration(self):
        tau = prior_tau(TWO_POINT)
        got = oracle.exact_expected_bound(TWO_POINT, tau, z=1, K=0, kind="U")
        assert got == pytest.approx(-0.500402, abs=1e-6)
        assert got >= math.log(0.5)

    def test_posterior_tau_collapses_to_marginal_any_K(self):
        tau = posterior_tau(TWO_POINT)
        z = np.ones(64, dtype=np.int64)
        x = np.zeros((64, 0))
        for K in (0, 1, 3):
            est = upper_bound_U(TWO_POINT, tau, z, x, K, RngStream(K))
            per_row = np.asarray(est.per_x)
            np.testing.assert_allclose(per_row, math.log(0.5), atol=1e-12)

    def test_expected_bound_tightens_with_K(self):
        tau = prior_tau(TWO_POINT)
        logq = math.log(0.5)
        e0 = oracle.exact_expected_bound(TWO_POINT, tau, 1, 0, "U")
        e5 = oracle.exact_expected_bound(TWO_POINT, tau, 1, 5, "U")
        assert e5 - logq < e0 - logq

    def test_standalone_requires_posterior_sampler(self):
        m = make_laplace_scale_mixture(2)
        with pytest.raises(UnsupportedModelError):
            upper_bound_U(m, prior_tau(m), np.zeros((1, 2)), np.zeros((1, 0)), 1, RngStream(0))

    def test_mc_estimate_consistent_with_enumeration(self):
        tau = prior_tau(TWO_POINT)
        n = 40000
        est = upper_bound_U(TWO_POINT, tau, np.ones(n, dtype=np.int64),
                            np.zeros((n, 0)), 3, RngStream(7))
        exact = oracle.exact_expected_bound(TWO_POINT, tau, 1, 3, "U")
        se = np.asarray(est.per_x).std() / math.sqrt(n)
        assert est.value == pytest.approx(exact, abs=4 * se)


class TestLowerBound:
    def test_posterior_tau_collapses(self):
        tau = posterior_tau(TWO_POINT)
        est = lower_bound_L(TWO_POINT, tau, np.ones(16, dtype=np.int64),
                            np.zeros((16, 0)), 4, RngStream(0))
        np.testing.assert_allclose(np.asarray(est.per_x), math.log(0.5), atol=1e-12)

    def test_expected_l1_hand_value(self):
        tau = prior_tau(TWO_POINT)
        got = oracle.exact_expected_bound(TWO_POINT, tau, 1, 1, "L")
        assert got == pytest.approx(0.5 * math.log(0.2) + 0.5 * math.log(0.8), abs=1e-12)
        assert got <= math.log(0.5)

    def test_requires_at_least_one_draw(self):
        with pytest.raises(ValueError):
            lower_bound_L(TWO_POINT, prior_tau(TWO_POINT), np.ones(1, dtype=np.int64),
                          X1, 0, RngStream(0))

    def test_sandwich_on_random_models(self):
        rng = RngStream(99)
        for i in range(20):
            m = oracle.random_finite_model(rng)
            tau = oracle.random_discrete_tau(rng, m)
            logq = oracle.exact_log_marginal_finite(m, 0)
            for K in range(1, 6):
                lo = oracle.exact_expected_bound(m, tau, 0, K, "L")
                hi = oracle.exact_expected_bound(m, tau, 0, K, "U")
                assert lo <= logq + 1e-10
                assert hi >= logq - 1e-10


class TestHierarchicalElbos:
    GEN = discrete_gen([0.3, 0.6], [0.45, 0.55])
    LOGPX = true_log_px([0.3, 0.6], [0.45, 0.55])

    def test_factorized_model_with_prior_tau_recovers_elbo(self):
        # Factorized q(z, psi) = q(z) q(psi): the bound equals the plain ELBO
        # term sample for sample.
        m = make_discrete_hvm([0.5, 0.5], [[0.7, 0.3], [0.7, 0.3]])
        est = sivi_elbo(self.GEN, m, X1, K=3, rng=RngStream(0))
        t = Tape(requires_grad=False)
        z = 1 if est.diagnostics else None
        # recompute the elbo term for the same z draw
        # (log p(x, z) - log q(z)); q(z=j) = 0.7 / 0.3
        # extract z from the estimate's per-row computation via fresh draw:
        rng = RngStream(0)
        from hvi.models import sample_joint
        _, zdraw = sample_joint(m, X1, rng, t)
        zc = int(np.asarray(zdraw)[0]) if isinstance(zdraw, np.ndarray) else int(t.val(zdraw)[0])
        lik = math.log([0.3, 0.6][zc])
        pz = math.log([0.45, 0.55][zc])
        qz = math.log([0.7, 0.3][zc])
        assert est.value == pytest.approx(lik + pz - qz, abs=1e-12)

    def test_k0_equals_hvm_term(self):
        tau = oracle.random_discrete_tau(RngStream(5), TWO_POINT)
        est = iwhvi_elbo(self.GEN, TWO_POINT, tau, None, X1, BoundConfig(M=1, K=0),
                         RngStream(3))
        t = Tape(requires_grad=False)
        rng = RngStream(3)
        from hvi.models import log_joint, sample_joint
        psi0, z = sample_joint(TWO_POINT, X1, rng, t)
        zc = int(np.asarray(z)[0])
        lj = float(np.asarray(t.val(log_joint(TWO_POINT, z, psi0, X1, t))).reshape(-1)[0])
        lt = float(np.asarray(t.val(tau.log_prob(psi0, z, X1, t))).reshape(-1)[0])
        lik = math.log([0.3, 0.6][zc])
        pz = math.log([0.45, 0.55][zc])
        want = lik + pz - (lj - lt)
        assert est.value == pytest.approx(want, abs=1e-12)

    def test_exact_expected_elbo_is_lower_bound(self):
        tau = oracle.random_discrete_tau(RngStream(6), TWO_POINT)
        for K in range(5):
            e = oracle.exact_expected_elbo(self.GEN, TWO_POINT, tau, None, M=1, K=K, L=1)
            assert e <= self.LOGPX + 1e-10

    def test_diwhvi_m1_equals_iwhvi_shared_randomness(self):
        tau = oracle.random_discrete_tau(RngStream(7), TWO_POINT)
        a = diwhvi_elbo(self.GEN, TWO_POINT, tau, None, X1, BoundConfig(M=1, K=2), RngStream(11))
        b = iwhvi_elbo(self.GEN, TWO_POINT, tau, None, X1, BoundConfig(M=1, K=2), RngStream(11))
        assert a.value == b.value

    def test_exact_expected_diwhvi_nondecreasing_in_M(self):
        tau = oracle.random_discrete_tau(RngStream(8), TWO_POINT)
        vals = [oracle.exact_expected_elbo(self.GEN, TWO_POINT, tau, None, M=M, K=1, L=1)
                for M in (1, 2, 3)]
        assert vals[0] <= vals[1] + 1e-10 <= vals[2] + 2e-10
        assert all(v <= self.LOGPX + 1e-10 for v in vals)

    def test_diwhvi_prior_tau_equals_sivi_like(self):
        a = diwhvi_elbo(self.GEN, TWO_POINT, prior_tau(TWO_POINT), None, X1,
                        BoundConfig(M=3, K=2), RngStream(13))
        b = eval_variants(self.GEN, TWO_POINT, None, X1, M=3, K=2,
                          variant="SIVI_LIKE", rng=RngStream(13))
        assert a.value == b.value

    def test_sivi_equals_iwhvi_with_prior_tau(self):
        a = sivi_elbo(self.GEN, TWO_POINT, X1, K=4, rng=RngStream(17))
        b = iwhvi_elbo(self.GEN, TWO_POINT, prior_tau(TWO_POINT), None, X1,
                       BoundConfig(M=1, K=4), RngStream(17))
        assert abs(a.value - b.value) < 1e-12

    def test_sivi_reused_is_lower_bound_in_expectation(self):
        n = 60000
        xs = np.zeros((n, 0))
        est = sivi_reused(self.GEN, TWO_POINT, xs, M=2, K=2, rng=RngStream(19))
        se = np.asarray(est.per_x).std() / math.sqrt(n)
        assert est.value <= self.LOGPX + 4 * se

    def test_warmup_weights_scale_inner_and_outer_gaps_exactly(self):
        vae = make_mini_vae(12, 3, 3, (8,), RngStream(1))
        x = (RngStream(2).uniform((4, 12)) < 0.5).astype(np.float64)
        M, K, w_in, w_out = 2, 3, 0.25, 0.625
        est = diwhvi_elbo(vae.gen, vae.q, vae.tau, None, x, BoundConfig(M=M, K=K),
                          RngStream(3), w_inner=w_in, w_outer=w_out)
        # The same pieces on the same stream, weighted by hand.
        t, rng = Tape(requires_grad=False), RngStream(3)
        psi0, z = sample_joint(vae.q, x, rng, t, rows=M * 4)
        psis, ltau = vae.tau.sample_and_score(z, x, K, psi0, rng, t)
        inner = t.val(vae.q.log_psi_prior(psis, x, t)) - t.val(ltau)
        lw = t.val(vae.q.log_z_given_psi(z, psis, x, t)) + w_in * inner
        den = t.val(t.logmeanexp(lw.reshape(K + 1, M * 4), axis=0))
        gap = t.val(vae.gen.prior.log_prob(z, t)) - den
        ratio = t.val(vae.gen.log_lik(x, z, t)) + w_out * gap
        want = t.val(t.logmeanexp(ratio.reshape(M, 4), axis=0))
        np.testing.assert_array_equal(est.per_x, want)
        unweighted = diwhvi_elbo(vae.gen, vae.q, vae.tau, None, x, BoundConfig(M=M, K=K),
                                 RngStream(3))
        assert not np.any(unweighted.per_x == want)

    def test_hierarchical_prior_term(self):
        # p(z) itself a two-level finite model; DSIVI-style rho = prior marginal.
        p_model = make_discrete_hvm([0.6, 0.4], [[0.5, 0.5], [0.2, 0.8]])
        rho = prior_tau(p_model)
        gen = Generative(log_lik=lambda x, z, t: t.const(np.log(np.array([0.3, 0.6]))[np.asarray(z, dtype=np.int64)]),
                         prior=HierarchicalPrior(model=p_model))
        tau = oracle.random_discrete_tau(RngStream(23), TWO_POINT)
        est = diwhvi_elbo(gen, TWO_POINT, tau, rho, X1, BoundConfig(M=1, K=1, L=2),
                          RngStream(29))
        assert np.isfinite(est.value)
        pz = np.array([p_model.finite.marginal(z) for z in range(2)])
        exact = oracle.exact_expected_elbo(gen, TWO_POINT, tau, rho, M=1, K=1, L=2)
        assert exact <= true_log_px([0.3, 0.6], pz) + 1e-10


def _tiled_nodes(t: Tape, x: np.ndarray) -> list:
    """2-d tape nodes whose leading columns hold n > 1 stacked copies of the
    rows of x or of another 2-d node.  Nodes whose rows are all equal (a
    head's fallback row, the zeros it gives an identity head) are not
    sources: repeating them is numpy's own broadcast of one row."""
    values = [np.asarray(v) for v in t.values]
    sources = [x] + [v for v in values
                     if v.ndim == 2 and v.shape[0] > 1 and not np.all(v == v[:1])]
    bad = []
    for i, v in enumerate(values):
        if v.ndim != 2:
            continue
        for u in sources:
            R, D = u.shape
            if (v.shape[0] > R and v.shape[0] % R == 0 and v.shape[1] >= D
                    and np.array_equal(v[:, :D], np.tile(u, (v.shape[0] // R, 1)))):
                bad.append((i, t._ops[i], v.shape))
                break
    return bad


class TestSampleLayout:
    def test_no_estimator_tiles_x(self, monkeypatch):
        # The decoder's logits legitimately have n*B rows and x_dim columns;
        # what must never appear is x, z, psi or tau's parameter rows (or a
        # concat led by them) repeated over the sample blocks.
        from hvi.grads import grad_iwhvi_dreg
        from hvi.models import make_mini_vae
        vae = make_mini_vae(10, 3, 3, (6,), RngStream(1))
        g = np.random.default_rng(4)
        for name in vae.store.names():       # off the init: no two rows coincide
            vae.store[name] = vae.store[name] + 0.3 * g.standard_normal(vae.store[name].shape)
        x = (np.random.default_rng(0).random((4, 10)) < 0.4).astype(float)
        gen, q, tau = vae.gen, vae.q, vae.tau
        cfg = BoundConfig(M=3, K=4)
        runs = {
            "diwhvi_elbo": lambda t: diwhvi_elbo(gen, q, tau, None, x, cfg, RngStream(2), t),
            "lower_bound_L": lambda t: lower_bound_L(q, tau, sample_joint(q, x, RngStream(5), t)[1],
                                                     x, 4, RngStream(2), t),
            "sivi_reused": lambda t: sivi_reused(gen, q, x, 3, 4, RngStream(2), t),
        }
        for variant in ("SIVI_LIKE", "SIVI_EQUICOMP", "SIVI_EQUISAMPLE", "DIWHVI_EVAL"):
            runs[variant] = lambda t, v=variant: eval_variants(gen, q, tau, x, 3, 4, v,
                                                               RngStream(3), t)
        for name, run in runs.items():
            t = Tape()
            run(t)
            assert len(t) > 0 and _tiled_nodes(t, x) == [], name

        tapes, backward = [], Tape.backward
        monkeypatch.setattr(Tape, "backward", lambda t, out: tapes.append(t) or backward(t, out))
        grad_iwhvi_dreg(gen, q, tau, x, cfg, RngStream(2))
        assert len(tapes) == 1 and _tiled_nodes(tapes[0], x) == []

    def test_guard_flags_a_tiled_x(self):
        x = (np.random.default_rng(0).random((4, 10)) < 0.4).astype(float)
        t = Tape()
        t.concat([t.const(np.tile(x, (3, 1))), t.const(np.ones((12, 2)))], axis=1)
        assert [op for _, op, _ in _tiled_nodes(t, x)] == ["const", "concat"]
        t = Tape()
        z = t.leaf(np.random.default_rng(1).standard_normal((4, 3)))
        t.concat([z, z])
        assert [op for _, op, _ in _tiled_nodes(t, x)] == ["concat"]


class TestEvalVariants:
    GEN = discrete_gen([0.3, 0.6], [0.45, 0.55])
    LOGPX = true_log_px([0.3, 0.6], [0.45, 0.55])

    def test_k0_variants_coincide(self):
        tau = oracle.random_discrete_tau(RngStream(31), TWO_POINT)
        vals = {}
        for variant in ("SIVI_LIKE", "SIVI_EQUICOMP", "SIVI_EQUISAMPLE"):
            est = eval_variants(self.GEN, TWO_POINT, tau, X1, M=3, K=0, variant=variant,
                                rng=RngStream(37))
            vals[variant] = est.value
        assert vals["SIVI_LIKE"] == pytest.approx(vals["SIVI_EQUICOMP"], abs=1e-12)
        assert vals["SIVI_LIKE"] == pytest.approx(vals["SIVI_EQUISAMPLE"], abs=1e-12)

    def test_all_variants_are_lower_bounds(self):
        tau = oracle.random_discrete_tau(RngStream(41), TWO_POINT)
        n = 40000
        xs = np.zeros((n, 0))
        for variant in ("SIVI_LIKE", "SIVI_EQUICOMP", "SIVI_EQUISAMPLE", "DIWHVI_EVAL"):
            est = eval_variants(self.GEN, TWO_POINT, tau, xs, M=2, K=2, variant=variant,
                                rng=RngStream(43))
            se = np.asarray(est.per_x).std() / math.sqrt(n)
            assert est.value <= self.LOGPX + 4 * se, variant

    def test_density_evaluation_counters(self):
        tau = oracle.random_discrete_tau(RngStream(47), TWO_POINT)
        M, K = 3, 4
        eq = eval_variants(self.GEN, TWO_POINT, tau, X1, M, K, "SIVI_EQUICOMP", RngStream(53))
        assert eq.diagnostics["cond_evals"] == M * (K + 1)
        es = eval_variants(self.GEN, TWO_POINT, tau, X1, M, K, "SIVI_EQUISAMPLE", RngStream(53))
        assert es.diagnostics["cond_evals"] == M * (M * K + 1)
        dv = eval_variants(self.GEN, TWO_POINT, tau, X1, M, K, "DIWHVI_EVAL", RngStream(53))
        assert dv.diagnostics["cond_evals"] == M * (K + 1)


class TestMiniVaeCosts:
    """What one pass of the 784-64-64 mini VAE records and holds."""

    @staticmethod
    def _vae_and_images(B):
        vae = make_mini_vae(784, 8, 8, (64, 64), RngStream(0))
        return vae, (np.random.default_rng(0).random((B, 784)) < 0.3).astype(float)

    def test_autodiff_step_records_at_most_110_nodes(self):
        # One node per MLP layer, gate, head and Bernoulli density: the ELBO
        # and its negation record 105 nodes, where one-op nodes made 195.
        vae, x = self._vae_and_images(32)
        t = Tape()
        est = diwhvi_elbo(vae.gen, vae.q, vae.tau, None, x, BoundConfig(M=1, K=2),
                          RngStream(1), t)
        t.backward(t.neg(est.node))
        assert len(t) <= 110

    def test_diwhvi_eval_chunk_peak_memory(self):
        # One evaluate_vae_bound chunk: 8 images, M = 100, so log q(z | psi)
        # scores (K + 1) 800 rows.  It runs in slices of 1,600 rows (0.8 MB
        # per 64-wide hidden array) and log p(x | z) in slices of 256 rows
        # (1.6 MB per 784-wide logit array), so the peak does not grow with K.
        vae, x = self._vae_and_images(8)
        for variant, K in itertools.product(("DIWHVI_EVAL", "SIVI_LIKE"), (0, 16)):
            def chunk(seed):
                return eval_variants(vae.gen, vae.q, vae.tau, x, 100, K, variant,
                                     RngStream(seed), Tape(requires_grad=False))

            chunk(1)                                                 # warm-up
            tracemalloc.start()
            try:
                est = chunk(2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.isfinite(est.value)
            assert peak <= 6 * 2**20, (variant, K, peak)


class TestRowBlocks:
    """No-grad per-row densities run in row slices with the bits of one call.

    Each case runs at the module's row budgets (or the ``small`` ones), then
    with budgets no density reaches, which makes one call per density.
    M = 100 replicas of 8 images give 800 rows of z, so the 1,600-row slices
    of log q(z | psi) and the 256-row slices of log p(x | z) end in a partial
    slice.  Densities are counted through ``counted`` (owner, attribute)
    pairs, so a case in which nothing was sliced fails.
    """

    @staticmethod
    def _assert_blocked_bits(monkeypatch, run, counted, small=None):
        calls = []
        for owner, name in counted:
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, fn=fn: calls.append(1) or fn(*a))
        runs = []
        for cond, lik in (small or (bounds.COND_ROWS, bounds.LIK_ROWS), (10**9, 10**9)):
            monkeypatch.setattr(bounds, "COND_ROWS", cond)
            monkeypatch.setattr(bounds, "LIK_ROWS", lik)
            calls.clear()
            runs.append((run(), len(calls)))
        (blocked, n_blocked), (single, n_single) = runs
        assert n_blocked > n_single
        assert blocked.per_x.tobytes() == single.per_x.tobytes()
        assert blocked.log_weights.tobytes() == single.log_weights.tobytes()

    @pytest.mark.parametrize("small", [None, (296, 96)], ids=["module", "small"])
    @pytest.mark.parametrize("K", [0, 4, 16])
    @pytest.mark.parametrize("variant", ["DIWHVI_EVAL", "SIVI_LIKE", "SIVI_EQUICOMP"])
    def test_mini_vae_eval_chunk(self, monkeypatch, variant, K, small):
        vae, x = TestMiniVaeCosts._vae_and_images(8)
        self._assert_blocked_bits(
            monkeypatch,
            lambda: eval_variants(vae.gen, vae.q, vae.tau, x, 100, K, variant,
                                  RngStream(5), Tape(requires_grad=False)),
            [(vae.q, "log_z_given_psi"), (vae.gen, "log_lik")], small)

    @pytest.mark.parametrize("sivi", [False, True], ids=["gamma_tau", "sivi"])
    def test_toy_driver_eval_shape(self, monkeypatch, sivi):
        # run_toy_laplace's final eval point: 2048 draws of the 50-d model, K = 10.
        model = make_laplace_scale_mixture(50)
        tau = (prior_tau(model) if sivi else
               make_gamma_mlp_tau(50, (128, 128, 128), ParamStore(), RngStream(1)))
        self._assert_blocked_bits(
            monkeypatch,
            lambda: upper_bound_U_joint(model, tau, np.zeros((2048, 0)), 10, RngStream(6),
                                        Tape(requires_grad=False)),
            [(model, "log_z_given_psi")])

    def test_discrete_two_point_codes(self, monkeypatch):
        # int code arrays: 30 images, M = 50, so 1,500 rows of z; K = 3.
        gen = discrete_gen([0.3, 0.6], [0.5, 0.5])
        self._assert_blocked_bits(
            monkeypatch,
            lambda: diwhvi_elbo(gen, TWO_POINT, posterior_tau(TWO_POINT), None,
                                np.zeros((30, 0)), BoundConfig(M=50, K=3), RngStream(7),
                                Tape(requires_grad=False)),
            [(TWO_POINT, "log_z_given_psi"), (gen, "log_lik")])

    def test_discrete_upper_bound_partial_slice(self, monkeypatch):
        # 17 blocks of 300 rows against a 2048-row budget: 1,800 + 1,800 + 1,500.
        tau = make_discrete_tau(TWO_POINT, probs=[[0.6, 0.4], [0.3, 0.7]])
        z = RngStream(8).categorical(np.broadcast_to([0.5, 0.5], (300, 2)))
        self._assert_blocked_bits(
            monkeypatch,
            lambda: upper_bound_U(TWO_POINT, tau, z, np.zeros((300, 0)), 16, RngStream(9),
                                  Tape(requires_grad=False)),
            [(TWO_POINT, "log_z_given_psi")])

    def test_grad_tape_makes_one_call(self, monkeypatch):
        vae, x = TestMiniVaeCosts._vae_and_images(8)
        calls = []
        fn = vae.gen.log_lik
        monkeypatch.setattr(vae.gen, "log_lik", lambda *a: calls.append(1) or fn(*a))
        diwhvi_elbo(vae.gen, vae.q, vae.tau, None, x, BoundConfig(M=100, K=2), RngStream(1),
                    Tape())
        assert len(calls) == 1


class TestKlBounds:
    def test_gaussian_wrap_sandwich(self):
        n = 100_000
        q = gaussian_wrap(0.0, 1.0)
        p = gaussian_wrap(1.0, 1.0)
        tau, rho = wrap_tau(), wrap_tau()
        x = np.zeros((n, 0))
        up = kl_upper_bound(q, HierarchicalPrior(model=p), tau, rho, x, K=8, L=8,
                            rng=RngStream(61))
        lo = kl_lower_bound(q, HierarchicalPrior(model=p), tau, rho, x, K=8, L=8,
                            rng=RngStream(67))
        se_up = np.asarray(up.per_x).std() / math.sqrt(n)
        se_lo = np.asarray(lo.per_x).std() / math.sqrt(n)
        assert up.value >= 0.5 - 3 * se_up
        assert lo.value <= 0.5 + 3 * se_lo

    def test_discrete_exact_sandwich(self):
        rng = RngStream(71)
        q = oracle.random_finite_model(rng, psi_size=2, z_size=2)
        p = oracle.random_finite_model(rng, psi_size=2, z_size=2)
        tau = oracle.random_discrete_tau(rng, q)
        rho = oracle.random_discrete_tau(rng, p)
        truth = oracle.true_kl_finite(q, p)
        for K in (1, 2, 3):
            for L in (1, 2, 3):
                up = oracle.exact_expected_kl_upper(q, p, tau, rho, K, L)
                lo = oracle.exact_expected_kl_lower(q, p, tau, rho, K, L)
                assert lo <= truth + 1e-10 <= up + 2e-10

    def test_q_equals_p_upper_nonnegative(self):
        rng = RngStream(73)
        q = oracle.random_finite_model(rng)
        tau = oracle.random_discrete_tau(rng, q)
        up = oracle.exact_expected_kl_upper(q, q, tau, tau, K=2, L=2)
        assert up >= -1e-12

    def test_lower_bound_needs_tractable_inverse(self):
        q = gaussian_wrap(0.0, 1.0)
        p = make_laplace_scale_mixture(1)
        with pytest.raises(UnsupportedModelError):
            kl_lower_bound(q, HierarchicalPrior(model=p), wrap_tau(), prior_tau(p),
                           X1, K=2, L=2, rng=RngStream(0))
        with pytest.raises(UnsupportedModelError):
            kl_lower_bound(q, ExplicitPrior(log_prob=lambda z, t: t.const(np.zeros(1))),
                           wrap_tau(), None, X1, K=2, L=2, rng=RngStream(0))


class TestOmegaSampler:
    def test_enumerated_marginal_matches_closed_form(self):
        rng = RngStream(79)
        m = oracle.random_finite_model(rng, psi_size=3, z_size=3)
        tau = oracle.random_discrete_tau(rng, m)
        for K in (1, 2):
            marg = oracle.enumerate_omega_marginal(m, tau, z=1, K=K)
            assert sum(marg.values()) == pytest.approx(1.0, abs=1e-12)
            for tup, prob in marg.items():
                want = oracle.omega_closed_form(m, tau, 1, tup)
                assert prob == pytest.approx(want, abs=1e-10)

    def test_sampler_frequencies_match_closed_form(self):
        m = TWO_POINT
        tau = prior_tau(m)
        rng = RngStream(83)
        counts = {}
        n = 30000
        for _ in range(n):
            out = omega_sample(m, tau, np.array([1]), X1, K=1, rng=rng)
            key = tuple(int(v) for v in np.asarray(out[0]).ravel())
            counts[key] = counts.get(key, 0) + 1
        for key, c in counts.items():
            want = oracle.omega_closed_form(m, tau, 1, key)
            assert c / n == pytest.approx(want, abs=0.02)

    def test_table_draw_matches_the_per_row_loop(self):
        # One categorical call over all rows must draw, and consume, what a
        # loop of one call per row drew: K + 1 = 9 weights per row take
        # numpy's pairwise sum, so each row must be summed as a 1-d slice.
        m = make_laplace_scale_mixture(3)
        tau = prior_tau(m)
        K, rows = 8, 16
        x = np.zeros((rows, 0))
        t = Tape(requires_grad=False)
        z = t.val(sample_joint(m, x, RngStream(5), t)[1])

        def per_row_loop(rng):
            t = Tape(requires_grad=False)
            draws, ltau = tau.sample_and_score(z, x, K + 1, None, rng, t)
            lw = np.asarray(t.val(t.sub(log_joint(m, z, draws, x, t), ltau))).reshape(K + 1, rows)
            draws_v = t.val(draws).reshape((K + 1, rows) + t.val(draws).shape[1:])
            out = []
            for b in range(rows):
                w = np.exp(lw[:, b] - np.max(lw[:, b]))
                h = rng.categorical(w / w.sum())
                out.append(draws_v[[h] + [i for i in range(K + 1) if i != h], b])
            return out

        class Recording(RngStream):
            """Keeps every probability table it is asked to draw from."""

            def categorical(self, probs):
                self.tables = getattr(self, "tables", []) + [np.array(probs)]
                return super().categorical(probs)

        got_rng, want_rng = Recording(13), Recording(13)
        got = omega_sample(m, tau, z, x, K, got_rng)
        want = per_row_loop(want_rng)
        assert len(got) == len(want) == rows
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert got_rng.uniforms_consumed == want_rng.uniforms_consumed
        # A pick rarely moves with the last bit of a weight, so compare the
        # normalized weights themselves.
        assert len(got_rng.tables) == 1
        assert got_rng.tables[0].tobytes() == np.stack(want_rng.tables).tobytes()


class TestJackknife:
    def test_sharot_values(self):
        assert sharot_coeff(5, 1, 0) == 5.0
        assert sharot_coeff(5, 1, 1) == -4.0
        assert sharot_coeff(3, 0, 0) == 1.0

    def test_sharot_sums_to_one(self):
        for K in range(1, 21):
            for J in range(0, min(3, K) + 1):
                total = sum(sharot_coeff(K, J, j) for j in range(J + 1))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_j0_equals_plain_upper_bound(self):
        tau = prior_tau(TWO_POINT)
        z = np.ones(32, dtype=np.int64)
        x = np.zeros((32, 0))
        a = jackknife_U(TWO_POINT, tau, z, x, K=3, J=0, rng=RngStream(89))
        b = upper_bound_U(TWO_POINT, tau, z, x, K=3, rng=RngStream(89))
        assert a.value == pytest.approx(b.value, abs=1e-12)

    @pytest.mark.parametrize("K,J", [(4, 1), (5, 2)])
    def test_higher_orders_match_per_subset_average(self, K, J):
        # psi = 1 cannot produce z = 0, so prior draws of it carry -inf weights.
        model = make_discrete_hvm([0.5, 0.3, 0.2], [[0.7, 0.3], [0.0, 1.0], [0.4, 0.6]])
        z = np.zeros(24, dtype=np.int64)
        est = jackknife_U(model, prior_tau(model), z, np.zeros((24, 0)), K=K, J=J,
                          rng=RngStream(61))
        lw = est.log_weights
        assert np.isneginf(lw).any()
        want = np.zeros(lw.shape[1])
        for j in range(J + 1):
            subsets = list(itertools.combinations(range(1, K + 1), K - j))
            per_subset = [np.log(np.mean(np.exp(lw[[0, *S]]), axis=0)) for S in subsets]
            want += sharot_coeff(K, J, j) * np.mean(per_subset, axis=0)
        np.testing.assert_allclose(est.per_x, want, rtol=1e-13)
        assert est.value == pytest.approx(float(np.mean(want)), rel=1e-13)

    def test_rejects_order_above_K(self):
        with pytest.raises(ValueError):
            jackknife_U(TWO_POINT, prior_tau(TWO_POINT), np.ones(1, dtype=np.int64),
                        X1, K=2, J=3, rng=RngStream(0))

    def test_exact_bias_reduction(self):
        rng = RngStream(97)
        for _ in range(10):
            m = oracle.random_finite_model(rng)
            tau = oracle.random_discrete_tau(rng, m)
            logq = oracle.exact_log_marginal_finite(m, 0)
            for K in (3, 4, 5):
                eu = oracle.exact_expected_bound(m, tau, 0, K, "U")
                ej = oracle.exact_expected_bound(m, tau, 0, K, ("J", 1))
                assert abs(ej - logq) < abs(eu - logq)


class TestExpectedKlTauPrior:
    def test_tau_equals_prior_gives_zero(self):
        m = TWO_POINT
        v = expected_kl_tau_prior(m, prior_tau(m), X1, 20000, RngStream(101))
        assert v == pytest.approx(0.0, abs=0.05)

    def test_two_gaussians_give_half(self):
        m = gaussian_wrap(0.0, 1.0)

        def log_prob(psi, z, x, t):
            return dists.log_prob(dists.normal(1.0, 1.0), psi, t)

        def sample(z, x, k, rng, t):
            rows = np.asarray(t.val(z) if hasattr(z, "index") else z).shape[0]
            return t.const(1.0 + rng.normal((k * rows, 1)))

        tau = AuxiliaryInference(log_prob=log_prob, sample=sample)
        v = expected_kl_tau_prior(m, tau, np.zeros((1, 0)), 200000, RngStream(103))
        assert v == pytest.approx(0.5, abs=0.02)

    def test_collapse_detector_flags_prior_tau(self):
        m = TWO_POINT
        v = expected_kl_tau_prior(m, prior_tau(m), X1, 20000, RngStream(107))
        assert abs(v) < 0.05     # the collapse threshold


class TestNumerics:
    def test_shift_invariance_of_weight_arithmetic(self):
        t = Tape(requires_grad=False)
        lw = np.array([[-3.0, -1.0, -2.0], [0.5, 0.2, -0.1]])
        base = np.asarray(t.val(t.logsumexp(t.const(lw), axis=0)))
        shifted = np.asarray(t.val(t.logsumexp(t.const(lw + 700.0), axis=0))) - 700.0
        np.testing.assert_allclose(shifted, base, atol=1e-9)

    def test_degenerate_weights_flagged_not_raised(self):
        # A tau table with a zero cell can produce -inf log weights; the
        # estimate goes to -inf and is flagged in the diagnostics.
        m = make_discrete_hvm([0.5, 0.5], [[1.0, 0.0], [1.0, 0.0]])
        tau = posterior_tau(m)     # posterior over psi for z=1 is undefined-ish
        est = upper_bound_U(m, make_tau_all_zero_weight(m), np.zeros(4, dtype=np.int64),
                            np.zeros((4, 0)), 0, RngStream(0))
        assert np.isfinite(est.value) or est.diagnostics.get("degenerate_rows")
        _ = tau

    def test_ess_bounds(self):
        lw = np.log(np.array([[0.5, 0.9], [0.5, 0.1]]))
        ess = effective_sample_size(lw)
        assert 1.0 <= ess <= 2.0

    def test_estimate_value_finite_for_finite_weights(self):
        tau = oracle.random_discrete_tau(RngStream(5), TWO_POINT)
        est = upper_bound_U(TWO_POINT, tau, np.ones(8, dtype=np.int64),
                            np.zeros((8, 0)), 2, RngStream(6))
        assert np.isfinite(est.value)
        assert 1.0 <= est.ess <= 3.0


def make_tau_all_zero_weight(m):
    # tau concentrated on a support point where the joint is zero for z=1.
    table = np.array([[1.0, 0.0], [0.0, 1.0]])

    def log_prob(psi, z, x, t):
        with np.errstate(divide="ignore"):
            lt = np.where(table[np.asarray(z, dtype=np.int64),
                                np.asarray(psi, dtype=np.int64)] > 0, 0.0, -np.inf)
        return t.const(lt)

    def sample(z, x, k, rng, t):
        zc = np.asarray(z, dtype=np.int64)
        return np.tile(np.argmax(table[zc], axis=1), k)

    return AuxiliaryInference(log_prob=log_prob, sample=sample)


class TestOneConditionerRun:
    """Drawing from and scoring a conditional tau runs its conditioner once,
    on the R rows of z, not again on the K R rows of the draws."""

    @pytest.mark.parametrize("name", ["lower_bound_L", "kl_lower_bound", "omega_sample",
                                      "expected_kl_tau_prior"])
    def test_gamma_tau_conditioner_runs_once_on_r_rows(self, name, monkeypatch):
        dim, R, K = 2, 4, 8
        q = make_laplace_scale_mixture(dim)
        tau = make_gamma_mlp_tau(dim, (8,), ParamStore(), RngStream(0))
        x = np.zeros((R, 0))
        t0 = Tape(requires_grad=False)
        z = t0.val(sample_joint(q, x, RngStream(1), t0)[1])
        rows = []
        apply = MlpCond.apply

        def counted(self, t, inputs, *args, **kwargs):
            rows.append(n_rows(inputs, t))
            return apply(self, t, inputs, *args, **kwargs)

        monkeypatch.setattr(MlpCond, "apply", counted)
        prior = HierarchicalPrior(model=gaussian_wrap(0.0, 1.0, dim))
        run = {
            "lower_bound_L": lambda: lower_bound_L(q, tau, z, x, K, RngStream(2)),
            "kl_lower_bound": lambda: kl_lower_bound(q, prior, tau, wrap_tau(dim), x, K, 3,
                                                     RngStream(2)),
            "omega_sample": lambda: omega_sample(q, tau, z, x, K, RngStream(2)),
            "expected_kl_tau_prior": lambda: expected_kl_tau_prior(q, tau, x, R, RngStream(2)),
        }
        run[name]()
        assert rows == [R]


class TestUntiledParameters:
    def test_gamma_tau_special_functions_see_r_rows(self, monkeypatch):
        # One U_K step and its backward: lgamma (forward) and digamma (lgamma's
        # backward, the implicit gradient) run on tau's R x dim parameters,
        # not on K or K + 1 repeated copies of them.
        dim, R, K = 3, 4, 5
        q = make_laplace_scale_mixture(dim)
        tau = make_gamma_mlp_tau(dim, (8,), ParamStore(), RngStream(0))
        sizes = {"lgamma": [], "digamma": []}
        for name in sizes:
            fn = getattr(special, name)

            def counted(a, fn=fn, name=name):
                sizes[name].append(np.size(a))
                return fn(a)
            monkeypatch.setattr(special, name, counted)
        t = Tape()
        est = upper_bound_U_joint(q, tau, np.zeros((R, 0)), K, RngStream(1), t)
        t.backward(est.node)
        assert sizes == {"lgamma": [R * dim], "digamma": [R * dim, R * dim]}


class TestBoundConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundConfig(M=0)
        with pytest.raises(ValueError):
            BoundConfig(K=-1)

    def test_iwhvi_requires_m1(self):
        with pytest.raises(ValueError):
            iwhvi_elbo(discrete_gen([0.5, 0.5], [0.5, 0.5]), TWO_POINT,
                       prior_tau(TWO_POINT), None, X1, BoundConfig(M=2, K=1), RngStream(0))
