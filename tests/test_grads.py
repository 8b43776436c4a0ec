"""Gradient estimators: autodiff vs oracles, the DReG surrogate, SNR harness."""

import math

import numpy as np
import pytest

from hvi import dists, oracle, special
from hvi.bounds import BoundConfig, diwhvi_elbo
from hvi.grads import grad_autodiff, grad_iwhvi_dreg, measure_snr
from hvi.models import (SNR_DIM, SNR_TAU_VAR, MlpCond, UnsupportedModelError, HierarchicalPrior,
                        conditional_tau, flat_generative, log_joint, make_discrete_hvm, make_discrete_tau,
                        make_mini_vae, make_snr_task, n_rows, sample_joint, Generative)
from hvi.rng import RngStream
from hvi.tape import ParamStore, Tape


class TestGradAutodiff:
    def test_normal_location_grad_matches_fd(self):
        store = ParamStore()
        store.add("mu", np.array(0.4))
        sample = 1.1  # frozen observation

        def build(t, rng):
            mu = t.param(store, "mu")
            return dists.log_prob(dists.normal(mu, 1.0), sample, t)

        g = grad_autodiff(build, RngStream(0)).grads["mu"]

        def f(mu):
            return float(dists.log_prob_value(dists.normal(float(mu), 1.0), sample))

        fd = oracle.finite_diff(f, np.array(0.4), step=1e-6)
        assert float(g) == pytest.approx(float(fd), abs=1e-6)

    def test_constant_objective_has_zero_gradient(self):
        store = ParamStore()
        store.add("w", np.ones(3))

        def build(t, rng):
            w = t.param(store, "w")
            return t.sum(t.mul(t.stop_gradient(w), 2.0))

        g = grad_autodiff(build, RngStream(0)).grads["w"]
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_enumerated_expected_bound_grad_matches_fd(self):
        # Exact E[U_K] recorded on the tape as a function of tau's logits; its
        # autodiff gradient must match central differences of the enumeration,
        # also at the SNR study's K = 64 over four psi values, where the
        # gradient entries are only about 1e-3.
        cases = [
            (make_discrete_hvm([0.4, 0.6], [[0.7, 0.3], [0.1, 0.9]]),
             [[0.3, -0.2], [0.1, 0.4]], 2, 1, 1e-4),
            (make_discrete_hvm([0.1, 0.2, 0.3, 0.4], [[0.7, 0.3], [0.1, 0.9], [0.5, 0.5], [0.2, 0.8]]),
             [[0.3, -0.2, 0.5, 0.0], [0.1, 0.4, -0.3, 0.2]], 64, 0, 1e-7),
        ]
        for model, logits, K, z, atol in cases:
            store = ParamStore()
            store.add("tau.logits", np.array(logits))
            tau = make_discrete_tau(model, store=store, name="tau.logits")
            shape = store["tau.logits"].shape

            t = Tape()
            node = oracle.exact_expected_bound(model, tau, z, K, "U", t=t)
            grads = t.param_grads(t.backward(node))["tau.logits"]

            def f(flat):
                keep = store["tau.logits"].copy()
                store["tau.logits"] = flat.reshape(shape)
                try:
                    return oracle.exact_expected_bound(model, tau, z, K, "U")
                finally:
                    store["tau.logits"] = keep

            fd = oracle.finite_diff(f, store["tau.logits"].reshape(-1), step=1e-5).reshape(shape)
            np.testing.assert_allclose(grads, fd, atol=atol)


def snr_setup(at_optimum=False, seed=0):
    store = ParamStore()
    model, tau, store = make_snr_task(store, RngStream(seed))
    if at_optimum:
        store["snr.A"] = 0.5 * np.eye(10)
        store["snr.b"] = 0.5 * np.ones(10)
    return model, tau, store


def dreg_reference_surrogate_grads(gen, model, store, x, M, K, rng, score_term=True):
    """tau's DReG gradient on the SNR task from a surrogate that stops A and b
    with ``stop_gradient`` inside the tail density, evaluated on z tiled K
    times: frozen replica weights alpha and term weights beta times the psi_0
    log density (live) and the K per-draw log ratios (pathwise only).
    ``score_term=False`` leaves out the psi_0 term."""
    B = x.shape[0]
    std = math.sqrt(SNR_TAU_VAR)
    t = Tape()

    def mean(z, stop):
        A, b = t.param(store, "snr.A"), t.param(store, "snr.b")
        if stop:
            A, b = t.stop_gradient(A), t.stop_gradient(b)
        return t.add(t.matmul(z, A), t.reshape(b, (1, SNR_DIM)))

    psi0, z = sample_joint(model, x, rng, t, rows=M * B)
    ltau0 = dists.log_prob(dists.normal(mean(z, False), std), psi0, t)
    lw = [np.asarray(t.val(log_joint(model, z, psi0, x, t))) - np.asarray(t.val(ltau0))]
    if K > 0:
        psis = dists.sample_reparam(dists.normal(t.concat([mean(z, False)] * K), std), rng, t)
        z_rep = t.concat([z] * K)
        lw_tail = t.reshape(t.sub(log_joint(model, z_rep, psis, x, t),
                                  dists.log_prob(dists.normal(mean(z_rep, True), std), psis, t)),
                            (K, M * B))
        lw.extend(np.asarray(t.val(lw_tail)))
    lw = np.stack(lw)
    lik = np.asarray(t.val(gen.log_lik(x, z, t))) + np.asarray(t.val(gen.prior.log_prob(z, t)))
    r = (lik - special.logsumexp(lw, axis=0) + np.log(K + 1)).reshape(M, B)
    alpha = special.softmax(r, axis=0).reshape(M * B)
    beta = special.softmax(lw, axis=0)
    total = t.sum(t.mul(t.const(alpha * beta[0] / B if score_term else 0.0), ltau0))
    if K > 0:
        coef = (alpha * (alpha - 2.0))[None, :] * beta[1:] ** 2 / B
        total = t.add(total, t.sum(t.mul(t.const(coef), lw_tail)))
    return t.param_grads(t.backward(total))


class TestDreg:
    def test_requires_explicit_prior(self):
        model, tau, store = snr_setup()
        p = HierarchicalPrior(model=model)
        gen = Generative(log_lik=lambda x, z, t: t.const(np.zeros(x.shape[0])), prior=p)
        with pytest.raises(UnsupportedModelError):
            grad_iwhvi_dreg(gen, model, tau, np.zeros((4, 0)), BoundConfig(M=1, K=1),
                            RngStream(0))

    def test_requires_tau_with_conditioner(self):
        # Discrete draws have no pathwise gradient: a tau without params raises.
        model = make_discrete_hvm([0.4, 0.6], [[0.7, 0.3], [0.1, 0.9]])
        store = ParamStore()
        store.add("tau.logits", np.zeros((2, 2)))
        tau = make_discrete_tau(model, store=store)
        with pytest.raises(UnsupportedModelError):
            grad_iwhvi_dreg(flat_generative(), model, tau, np.zeros((4, 0)),
                            BoundConfig(M=1, K=1), RngStream(0))

    def test_block_the_conditioner_does_not_bind_raises_naming_it(self):
        model, tau, _ = snr_setup()
        tau = conditional_tau(tau.params, tau.family, tau.param_names + ("snr.c",))
        with pytest.raises(ValueError, match="'snr.c'"):
            grad_iwhvi_dreg(flat_generative(), model, tau, np.zeros((4, 0)),
                            BoundConfig(M=1, K=1), RngStream(0))

    @pytest.mark.parametrize("M,K", [(1, 0), (1, 4), (3, 4)])
    def test_matches_surrogate_with_stopped_weights(self, M, K):
        # The estimator stops tau's parameter nodes once; this reference stops
        # A and b themselves and scores the K draws on tiled z.  Both give the
        # same gradient for tau's blocks, since z does not depend on them.
        model, tau, store = snr_setup(at_optimum=False)
        gen = flat_generative()
        x = np.zeros((7, 0))
        got = grad_iwhvi_dreg(gen, model, tau, x, BoundConfig(M=M, K=K), RngStream(5))
        want = dreg_reference_surrogate_grads(gen, model, store, x, M, K, RngStream(5))
        for n in ("snr.A", "snr.b"):
            np.testing.assert_allclose(got.grads[n], want[n], rtol=1e-12, err_msg=n)

    def test_vae_tau_conditioner_runs_once_on_the_rows_of_z(self, monkeypatch):
        vae = make_mini_vae(12, 3, 3, (8,), RngStream(1))
        x = (np.random.default_rng(0).random((4, 12)) < 0.4).astype(float)
        rows = []
        apply = MlpCond.apply

        def counted(self, t, inputs, *args, **kwargs):
            if self.prefix == "tau":
                rows.append(n_rows(inputs, t))
            return apply(self, t, inputs, *args, **kwargs)

        monkeypatch.setattr(MlpCond, "apply", counted)
        grad_iwhvi_dreg(vae.gen, vae.q, vae.tau, x, BoundConfig(M=2, K=3), RngStream(0))
        assert rows == [2 * 4]

    def test_k0_reduces_to_weighted_score_term(self):
        # With K = 0 the k-sum is empty and softmax(beta)_0 = 1: the gradient
        # is the replica-weighted parameter derivative of log tau at psi_0.
        model, tau, store = snr_setup(at_optimum=True)
        gen = flat_generative()
        x = np.zeros((16, 0))
        got = grad_iwhvi_dreg(gen, model, tau, x, BoundConfig(M=1, K=0), RngStream(3))

        def build(t, rng):
            from hvi.models import sample_joint
            psi0, z = sample_joint(model, x, rng, t)
            lt = tau.log_prob(psi0, z, x, t)
            return t.mean(lt)

        want = grad_autodiff(build, RngStream(3), param_prefix="snr.")
        for n in ("snr.A", "snr.b"):
            np.testing.assert_allclose(got.grads[n], want.grads[n], atol=1e-12)

    @pytest.mark.parametrize("M,K", [(1, 0), (1, 1), (1, 4), (4, 1), (4, 4)])
    def test_means_agree_with_autodiff(self, M, K):
        # Same-stream pairing: identical draws isolate the estimator
        # difference, whose mean must vanish (both are unbiased).
        model, tau, store = snr_setup(at_optimum=True)
        gen = flat_generative()
        x = np.zeros((50, 0))
        R = 300
        diffs = {n: [] for n in ("snr.A", "snr.b")}
        root = RngStream(11 + M * 10 + K)
        for r in range(R):
            def build(t, rng):
                return diwhvi_elbo(gen, model, tau, None, x, BoundConfig(M=M, K=K), rng, t).node
            ga = grad_autodiff(build, root.split(r), param_prefix="snr.")
            gd = grad_iwhvi_dreg(gen, model, tau, x, BoundConfig(M=M, K=K), root.split(r))
            for n in diffs:
                diffs[n].append(ga.grads[n] - gd.grads[n])
        for n, stack in diffs.items():
            arr = np.stack(stack)
            mean = arr.mean(axis=0)
            se = arr.std(axis=0, ddof=1) / math.sqrt(R) + 1e-12
            assert np.max(np.abs(mean) / se) < 4.5, (n, M, K)

    def test_unbiased_against_closed_form_gradient(self):
        # 1-d conjugate instance: E[objective] has a closed form, so the DReG
        # mean must match the analytic derivative.
        store = ParamStore()
        theta = np.ones(1)
        from hvi import dists as D
        from hvi.models import HierarchicalModel, conditional_tau

        def sample_psi(x, rows, rng, t):
            return t.const(theta + rng.normal((rows, 1)))

        def sample_z(psi, x, rng, t):
            return t.add(psi, t.const(rng.normal(np.shape(t.val(psi)))))

        model = HierarchicalModel(
            sample_psi=sample_psi, sample_z=sample_z,
            log_psi_prior=lambda psi, x, t: D.log_prob(D.normal(theta, 1.0), psi, t),
            log_z_given_psi=lambda z, psi, x, t: D.log_prob(D.normal(psi, 1.0), z, t))
        store.add("snr.A", np.array([[0.45]]))
        store.add("snr.b", np.array([0.58]))
        std = math.sqrt(2.0 / 3.0)

        def tau_mean(z, x, t):
            A, b = t.param(store, "snr.A"), t.param(store, "snr.b")
            return (t.add(t.matmul(z if not isinstance(z, np.ndarray) else t.const(z), A),
                          t.reshape(b, (1, 1))),)

        tau = conditional_tau(tau_mean, lambda mean: D.normal(mean, std), ("snr.A", "snr.b"))

        gen = flat_generative()
        # closed-form gradient of E[-U_0] w.r.t. (A, b) via the oracle
        tg = Tape()
        node = oracle.snr_exact_expected_u0(tg.param(store, "snr.A"), tg.param(store, "snr.b"),
                                            theta, 2.0 / 3.0, tg)
        exact = tg.param_grads(tg.backward(tg.neg(node)))
        R, B = 4000, 50
        acc = {n: [] for n in ("snr.A", "snr.b")}
        root = RngStream(17)
        for r in range(R):
            g = grad_iwhvi_dreg(gen, model, tau, np.zeros((B, 0)), BoundConfig(M=1, K=0),
                                root.split(r))
            for n in acc:
                acc[n].append(g.grads[n])
        for n in acc:
            arr = np.stack(acc[n])
            se = arr.std(axis=0, ddof=1) / math.sqrt(R) + 1e-12
            assert np.max(np.abs(arr.mean(axis=0) - exact[n]) / se) < 4.0

    def test_dropping_score_term_biases_the_gradient(self):
        # The psi_0 term is not optional: without it the estimator mean
        # detectably shifts away from the autodiff mean (away from the
        # optimum, where the bias has somewhere to point).
        model, tau, store = snr_setup(at_optimum=False)
        gen = flat_generative()
        x = np.zeros((100, 0))
        R = 400
        root = RngStream(23)
        diffs = []
        for r in range(R):
            def build(t, rng):
                return diwhvi_elbo(gen, model, tau, None, x, BoundConfig(M=1, K=2), rng, t).node
            ga = grad_autodiff(build, root.split(r), param_prefix="snr.")
            gd = dreg_reference_surrogate_grads(gen, model, store, x, 1, 2, root.split(r),
                                                score_term=False)
            diffs.append(np.concatenate([(ga.grads[n] - gd[n]).ravel()
                                         for n in ("snr.A", "snr.b")]))
        arr = np.stack(diffs)
        z = np.abs(arr.mean(axis=0)) / (arr.std(axis=0, ddof=1) / math.sqrt(R) + 1e-12)
        assert np.max(z) > 4.0

    def test_vae_train_dreg_step_replaces_tau_blocks(self, tmp_path, data_dir, monkeypatch):
        # One run_vae step under estimator=dreg: tau's blocks are exactly the
        # negated DReG gradient, every other block the autodiff ELBO gradient
        # with tau live, on the same stream the driver uses.
        from hvi import experiments
        from hvi.config import load_config
        from hvi.optim import Adam

        class FirstStep(Exception):
            pass

        seen = {}

        def elbo(*args, **kwargs):
            seen["args"], seen["kwargs"] = args, kwargs
            return diwhvi_elbo(*args, **kwargs)

        def descend(self, grads):
            seen["grads"] = grads
            raise FirstStep

        monkeypatch.setattr(experiments, "diwhvi_elbo", elbo)
        monkeypatch.setattr(Adam, "descend", descend)
        cfg = load_config(None, overrides={
            "experiment": "vae-train", "data_path": data_dir, "subset_size": "64",
            "epochs": "1", "m": "2", "k": "3", "hidden": "16,16", "seed": "5",
            "estimator": "dreg", "out": str(tmp_path / "d.csv")})
        with pytest.raises(FirstStep):
            experiments.run_vae(cfg)

        gen, q, tau, _, xb, config = seen["args"][:6]
        step_rng = RngStream(cfg.seed).split(1).split(1)        # the driver's first step
        t = Tape()
        est = diwhvi_elbo(gen, q, tau, None, xb, config, step_rng, t, **seen["kwargs"])
        want = t.param_grads(t.backward(t.neg(est.node)))
        dreg = grad_iwhvi_dreg(gen, q, tau, xb, config, RngStream(cfg.seed).split(1).split(1))
        got = seen["grads"]
        assert set(got) == set(want) and set(tau.param_names) < set(got)
        for name in got:
            expect = -dreg.grads[name] if name in tau.param_names else want[name]
            np.testing.assert_array_equal(got[name], expect, err_msg=name)


class TestMeasureSnr:
    def test_deterministic_gradient_reported_missing(self):
        def fn(rng):
            return {"w": np.ones(3)}

        rep = measure_snr(fn, 10, RngStream(0))
        assert rep.n_missing == 3
        assert np.all(~np.isfinite(rep.per_param["w"]))
        assert math.isnan(rep.mean_snr)

    def test_unit_gaussian_gradient_snr_is_one(self):
        # |mean|/std of N(1,1) replicates: 1.0 within ~1e-2 at 1e6 draws.
        draws = RngStream(31).normal((10 ** 6,)) + 1.0
        chunks = draws.reshape(-1, 1)

        idx = iter(range(len(chunks)))

        def fn(rng):
            return {"w": chunks[next(idx)]}

        rep = measure_snr(fn, 10 ** 6, RngStream(0))
        assert rep.mean_snr == pytest.approx(1.0, abs=0.01)

    def test_replicates_use_split_streams(self):
        seen = []

        def fn(rng):
            seen.append(rng.uniform())
            return {"w": np.array([seen[-1]])}

        measure_snr(fn, 5, RngStream(2))
        assert len(set(float(s) for s in seen)) == 5

    def test_requires_two_replicates(self):
        with pytest.raises(ValueError):
            measure_snr(lambda r: {"w": np.zeros(1)}, 1, RngStream(0))

    def test_vanilla_snr_decreases_with_K_on_toy_task(self):
        model, tau, store = snr_setup(seed=5)
        # near optimum with a small residual, as finite training leaves
        store["snr.A"] = 0.5 * np.eye(10) + 0.03
        store["snr.b"] = 0.5 * np.ones(10) - 0.03
        gen = flat_generative()

        def make_fn(K):
            def fn(rng):
                def build(t, r):
                    return diwhvi_elbo(gen, model, tau, None, np.zeros((100, 0)),
                                       BoundConfig(M=1, K=K), r, t).node
                return grad_autodiff(build, rng, param_prefix="snr.")
            return fn

        lo = measure_snr(make_fn(1), 150, RngStream(41))
        hi = measure_snr(make_fn(64), 150, RngStream(43))
        assert hi.mean_snr < lo.mean_snr
