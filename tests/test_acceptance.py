"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from hvi import oracle
from hvi.bounds import (BoundConfig, diwhvi_elbo, iwhvi_elbo, kl_lower_bound,
                        kl_upper_bound, sharot_coeff)
from hvi.config import load_config
from hvi.experiments import (EXPERIMENT_DEFAULTS, evaluate_vae_bound, load_vae_checkpoint,
                             run_toy_laplace, run_vae, snr_grad_fn,
                             train_snr_tau, _binarize, _load_images, _split_train_val)
from hvi.grads import grad_autodiff, grad_iwhvi_dreg, measure_snr
from hvi.models import (AuxiliaryInference, ExplicitPrior, Generative,
                        HierarchicalPrior, flat_generative, make_discrete_hvm,
                        make_snr_task)
from hvi.rng import RngStream
from hvi.tape import ParamStore, Tape

X1 = np.zeros((1, 0))


def report(criterion, passed, detail):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert passed, line


# -------------------------------------------------------------------------
# 1. Exact sandwich & monotonicity on 50 random finite models
# -------------------------------------------------------------------------

def test_criterion_01_exact_sandwich_and_monotonicity():
    t0 = time.monotonic()
    rng = RngStream(20260810)
    worst_gap = 0.0
    for i in range(50):
        m = oracle.random_finite_model(rng)
        tau = oracle.random_discrete_tau(rng, m)
        logq = oracle.exact_log_marginal_finite(m, 0)
        uppers = []
        for K in range(5):
            eu = oracle.exact_expected_bound(m, tau, 0, K, "U")
            el = oracle.exact_expected_bound(m, tau, 0, max(K, 1), "L")
            assert el <= logq + 1e-10, (i, K)
            assert logq <= eu + 1e-10, (i, K)
            uppers.append(eu)
            worst_gap = max(worst_gap, eu - logq)
        for a, b in zip(uppers, uppers[1:]):
            assert b <= a + 1e-10, (i, uppers)
    dt = time.monotonic() - t0
    report(1, dt < 30.0,
           f"50 models, K 0..4 sandwich + monotone at 1e-10, worst upper gap "
           f"{worst_gap:.3f} nats, {dt:.1f}s (< 30s)")


# -------------------------------------------------------------------------
# 2. Special-case shared-randomness identities
# -------------------------------------------------------------------------

def _fixed_tau(log_table, draws_k_major):
    """Finite tau with pinned draws: identity checks feed both code paths the
    same materialized samples."""

    def log_prob(psi, z, x, t):
        flat = log_table[np.asarray(z, dtype=np.int64), np.asarray(psi, dtype=np.int64)]
        return t.const(flat)

    def sample(z, x, k, rng, t):
        return draws_k_major[:k * np.asarray(z).shape[0]]

    return AuxiliaryInference(log_prob=log_prob, sample=sample)


def _fixed_model(model, psi0, z):
    return replace(model,
                   sample_psi=lambda x, rows, rng, t: psi0,
                   sample_z=lambda psi, x, rng, t: z)


def _lme(v):
    m = np.max(v)
    return m + math.log(np.mean(np.exp(v - m)))


def test_criterion_02_special_case_identities():
    t0 = time.monotonic()
    rng = RngStream(777)
    worst = {"sivi": 0.0, "hvm": 0.0, "dsivi": 0.0, "elbo": 0.0}
    for trial in range(100):
        q = oracle.random_finite_model(rng, psi_size=3, z_size=3)
        info = q.finite
        lik = np.log(oracle._dirichlet_floor(rng, 3))
        pz = np.log(oracle._dirichlet_floor(rng, 3))
        gen = Generative(
            log_lik=lambda x, z, t, lik=lik: t.const(lik[np.asarray(z, dtype=np.int64)]),
            prior=ExplicitPrior(log_prob=lambda z, t, pz=pz: t.const(pz[np.asarray(z, dtype=np.int64)])))
        K = 1 + trial % 4
        psi0 = np.array([rng.categorical(info.psi_probs)])
        z = np.array([rng.categorical(info.z_given_psi[psi0[0]])])
        mfix = _fixed_model(q, psi0, z)
        zc = int(z[0])
        lq_joint = np.log([info.joint(i, zc) for i in range(3)])
        lq_prior = np.log(info.psi_probs)
        lq_cond = lq_joint - lq_prior

        # SIVI: tau := q(psi | x); denominator reduces to conditionals.
        pool = np.array([rng.categorical(info.psi_probs) for _ in range(K)])
        tau_prior_fixed = _fixed_tau(np.tile(lq_prior, (3, 1)), pool)
        general = iwhvi_elbo(gen, mfix, tau_prior_fixed, None, X1,
                             BoundConfig(M=1, K=K), RngStream(0)).value
        direct = float(lik[zc] + pz[zc] - _lme(lq_cond[np.concatenate([psi0, pool])]))
        worst["sivi"] = max(worst["sivi"], abs(general - direct))

        # HVM: K = 0 with an arbitrary trained tau.
        tau_table = np.log(np.stack([oracle._dirichlet_floor(rng, 3) for _ in range(3)]))
        tau_fixed = _fixed_tau(tau_table, np.zeros(0, dtype=np.int64))
        general = iwhvi_elbo(gen, mfix, tau_fixed, None, X1,
                             BoundConfig(M=1, K=0), RngStream(0)).value
        direct = float(lik[zc] + pz[zc] - (lq_joint[psi0[0]] - tau_table[zc, psi0[0]]))
        worst["hvm"] = max(worst["hvm"], abs(general - direct))

        # DSIVI: hierarchical prior with rho := p(zeta).
        p_model = oracle.random_finite_model(rng, psi_size=3, z_size=3)
        ip = p_model.finite
        L = 1 + trial % 3
        zetas = np.array([rng.categorical(ip.psi_probs) for _ in range(L)])
        rho_fixed = _fixed_tau(np.tile(np.log(ip.psi_probs), (3, 1)), zetas)
        gen_h = Generative(log_lik=gen.log_lik, prior=HierarchicalPrior(model=p_model))
        general = diwhvi_elbo(gen_h, mfix, tau_prior_fixed, rho_fixed, X1,
                              BoundConfig(M=1, K=K, L=L), RngStream(0)).value
        lp_cond = np.log(ip.z_given_psi[:, zc])
        direct = float(lik[zc] + _lme(lp_cond[zetas])
                       - _lme(lq_cond[np.concatenate([psi0, pool])]))
        worst["dsivi"] = max(worst["dsivi"], abs(general - direct))

        # ELBO: factorized q(z, psi) with the optimal tau = q(psi | x).
        row = oracle._dirichlet_floor(rng, 3)
        fac = make_discrete_hvm(info.psi_probs, np.tile(row, (3, 1)))
        psi0f = np.array([rng.categorical(info.psi_probs)])
        zf = np.array([rng.categorical(row)])
        poolf = np.array([rng.categorical(info.psi_probs) for _ in range(K)])
        mfixf = _fixed_model(fac, psi0f, zf)
        tauf = _fixed_tau(np.tile(np.log(info.psi_probs), (3, 1)), poolf)
        general = iwhvi_elbo(gen, mfixf, tauf, None, X1,
                             BoundConfig(M=1, K=K), RngStream(0)).value
        zfc = int(zf[0])
        direct = float(lik[zfc] + pz[zfc] - math.log(row[zfc]))
        worst["elbo"] = max(worst["elbo"], abs(general - direct))
    dt = time.monotonic() - t0
    ok = all(v < 1e-12 for v in worst.values()) and dt < 10.0
    report(2, ok, "max |general - special case| over 100 trials: "
           + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f"; {dt:.1f}s (< 10s)")


# -------------------------------------------------------------------------
# 3. Resampling-distribution marginal (Lemma-1 analog)
# -------------------------------------------------------------------------

def test_criterion_03_omega_marginal():
    t0 = time.monotonic()
    rng = RngStream(31337)
    m = oracle.random_finite_model(rng, psi_size=3, z_size=3)
    tau = oracle.random_discrete_tau(rng, m)
    worst = 0.0
    for K in (1, 2):
        for z in range(3):
            marg = oracle.enumerate_omega_marginal(m, tau, z, K)
            assert abs(sum(marg.values()) - 1.0) < 1e-12
            for tup, prob in marg.items():
                want = oracle.omega_closed_form(m, tau, z, tup)
                worst = max(worst, abs(prob - want))
    dt = time.monotonic() - t0
    report(3, worst < 1e-10 and dt < 10.0,
           f"3x3 model, K in {{1,2}}, every support point within {worst:.2e} "
           f"(tol 1e-10); {dt:.1f}s (< 10s)")


# -------------------------------------------------------------------------
# 4. Toy Laplace: trained tau beats SIVI, halving the gap
# -------------------------------------------------------------------------

def test_criterion_04_toy_laplace(tmp_path):
    t0 = time.monotonic()
    cfg = load_config(None, overrides={"experiment": "toy-laplace", "seed": "1",
                                       "out": str(tmp_path / "acc_toy.csv")},
                      defaults=EXPERIMENT_DEFAULTS["toy-laplace"])
    writer = run_toy_laplace(cfg)
    truth = -50 * (1 + math.log(2))
    finals = {"iwhvi": [], "sivi": []}
    for row in writer.rows:
        if row.metric == "bound" and row.step == cfg.steps:
            finals[row.estimator.split("/")[0]].append(row.value)
    trained = np.array(finals["iwhvi"])
    sivi = np.array(finals["sivi"])
    assert len(trained) == 10 and len(sivi) == 10
    above = bool(np.all(trained >= truth))
    tr_hi = np.percentile(trained, 95)
    si_lo = np.percentile(sivi, 5)
    separated = tr_hi < si_lo
    ratio = (trained.mean() - truth) / (sivi.mean() - truth)
    dt = time.monotonic() - t0
    ok = above and separated and ratio < 0.6 and dt < 15 * 60
    report(4, ok,
           f"all replicates above truth={above}; trained CI hi {tr_hi:.2f} < "
           f"sivi CI lo {si_lo:.2f}={separated}; gap ratio {ratio:.3f} (< 0.6); "
           f"{dt / 60:.1f} min (< 15)")


# -------------------------------------------------------------------------
# 5. Gradient correctness
# -------------------------------------------------------------------------

def test_criterion_05_gradient_correctness():
    t0 = time.monotonic()
    # (a) DReG and autodiff means agree: paired over 1000 shared-draw
    # replicates of batch 100, per parameter within 3 SEs of the difference.
    store = ParamStore()
    model, tau, store = make_snr_task(store, RngStream(42))
    train_snr_tau(load_config(None, overrides={"experiment": "snr", "seed": "0"},
                              defaults=EXPERIMENT_DEFAULTS["snr"]),
                  store, model, tau, RngStream(42, 1))
    gen = flat_generative()
    x = np.zeros((100, 0))
    R, K = 1000, 4
    root = RngStream(2718)
    diffs = []
    for r in range(R):
        def build(t, rng):
            return diwhvi_elbo(gen, model, tau, None, x, BoundConfig(M=1, K=K), rng, t).node
        ga = grad_autodiff(build, root.split(r), param_prefix="snr.")
        gd = grad_iwhvi_dreg(gen, model, tau, x, BoundConfig(M=1, K=K), root.split(r))
        diffs.append(np.concatenate([(ga.grads[n] - gd.grads[n]).ravel()
                                     for n in ("snr.A", "snr.b")]))
    arr = np.stack(diffs)
    z = np.abs(arr.mean(axis=0)) / (arr.std(axis=0, ddof=1) / math.sqrt(R) + 1e-300)
    max_z = float(np.max(z))

    # (b) autodiff of the exact enumerated E[U_K] matches finite differences.
    from hvi.models import make_discrete_tau
    dm = make_discrete_hvm([0.4, 0.6], [[0.7, 0.3], [0.1, 0.9]])
    dstore = ParamStore()
    dstore.add("tau.logits", np.array([[0.3, -0.2], [0.1, 0.4]]))
    dtau = make_discrete_tau(dm, store=dstore)
    t = Tape()
    node = oracle.exact_expected_bound(dm, dtau, 1, 2, "U", t=t)
    got = t.param_grads(t.backward(node))["tau.logits"]

    def f(flat):
        keep = dstore["tau.logits"].copy()
        dstore["tau.logits"] = flat.reshape(2, 2)
        try:
            return oracle.exact_expected_bound(dm, dtau, 1, 2, "U")
        finally:
            dstore["tau.logits"] = keep

    fd = oracle.finite_diff(f, dstore["tau.logits"].reshape(-1), 1e-5).reshape(2, 2)
    fd_err = float(np.max(np.abs(got - fd)))
    dt = time.monotonic() - t0
    ok = max_z < 3.0 and fd_err < 1e-4 and dt < 5 * 60
    report(5, ok, f"paired DReG/autodiff max |z| = {max_z:.2f} (< 3) over 1000x100; "
           f"enumerated-grad FD error {fd_err:.2e} (< 1e-4); {dt:.0f}s (< 300)")


# -------------------------------------------------------------------------
# 6. SNR directionality
# -------------------------------------------------------------------------

def test_criterion_06_snr_directionality():
    t0 = time.monotonic()
    cfg = load_config(None, overrides={"experiment": "snr", "seed": "42"},
                      defaults=EXPERIMENT_DEFAULTS["snr"])
    store = ParamStore()
    model, tau, store = make_snr_task(store, RngStream(cfg.seed))
    train_snr_tau(cfg, store, model, tau, RngStream(cfg.seed, 1))
    gen = flat_generative()
    base = RngStream(cfg.seed)
    stats = {}
    for K in (1, 8, 64):
        for kind in ("autodiff", "dreg"):
            fn = snr_grad_fn(kind, gen, model, tau, cfg.batch_size, K)
            rep = measure_snr(fn, cfg.replicates, base.split(1000 + K * 10 + (kind == "dreg")))
            flat = np.concatenate([v[np.isfinite(v)].ravel() for v in rep.per_param.values()])
            stats[(kind, K)] = (rep.mean_snr, flat.std() / math.sqrt(flat.size))

    def mean_se(kind, K):
        return stats[(kind, K)]

    van_steps, dreg_flat = [], []
    for a, b in ((1, 8), (8, 64)):
        ma, sa = mean_se("autodiff", a)
        mb, sb = mean_se("autodiff", b)
        van_steps.append(ma - mb > 2 * math.hypot(sa, sb))
    m1, s1 = mean_se("dreg", 1)
    m64, s64 = mean_se("dreg", 64)
    dreg_flat = m64 >= m1 - 2 * math.hypot(s1, s64)
    dt = time.monotonic() - t0
    ok = all(van_steps) and dreg_flat and dt < 10 * 60
    detail = ", ".join(f"{k}:K{K}={stats[(k, K)][0]:.3f}" for k in ("autodiff", "dreg")
                       for K in (1, 8, 64))
    report(6, ok, f"{detail}; vanilla strictly decreasing at 2 sigma={all(van_steps)}, "
           f"dreg non-decreasing within 2 sigma={dreg_flat}; {dt / 60:.1f} min (< 10)")


# -------------------------------------------------------------------------
# 7. Jackknife
# -------------------------------------------------------------------------

def test_criterion_07_jackknife():
    t0 = time.monotonic()
    worst = 0.0
    for K in range(1, 21):
        for J in range(0, min(3, K) + 1):
            worst = max(worst, abs(sum(sharot_coeff(K, J, j) for j in range(J + 1)) - 1.0))
    rng = RngStream(555)
    reduced = True
    for _ in range(20):
        m = oracle.random_finite_model(rng)
        tau = oracle.random_discrete_tau(rng, m)
        logq = oracle.exact_log_marginal_finite(m, 0)
        for K in (3, 4, 5):
            eu = oracle.exact_expected_bound(m, tau, 0, K, "U")
            ej = oracle.exact_expected_bound(m, tau, 0, K, ("J", 1))
            reduced &= abs(ej - logq) < abs(eu - logq)
    dt = time.monotonic() - t0
    ok = worst < 1e-12 and reduced and dt < 60
    report(7, ok, f"sharot sums off by {worst:.1e} (tol 1e-12, K<=20, J<=3); first-order "
           f"jackknife reduces bias on 20 models x K in {{3,4,5}}={reduced}; {dt:.0f}s (< 60)")


# -------------------------------------------------------------------------
# 8. KL sandwich
# -------------------------------------------------------------------------

def test_criterion_08_kl_sandwich():
    t0 = time.monotonic()
    from test_bounds import gaussian_wrap, wrap_tau
    n = 100_000
    q, p = gaussian_wrap(0.0, 1.0), gaussian_wrap(1.0, 1.0)
    x = np.zeros((n, 0))
    up = kl_upper_bound(q, HierarchicalPrior(model=p), wrap_tau(), wrap_tau(), x,
                        K=8, L=8, rng=RngStream(61))
    lo = kl_lower_bound(q, HierarchicalPrior(model=p), wrap_tau(), wrap_tau(), x,
                        K=8, L=8, rng=RngStream(67))
    se_up = float(np.asarray(up.per_x).std() / math.sqrt(n))
    se_lo = float(np.asarray(lo.per_x).std() / math.sqrt(n))
    mc_ok = up.value >= 0.5 - 3 * se_up and lo.value <= 0.5 + 3 * se_lo

    rng = RngStream(71)
    exact_ok = True
    for _ in range(5):
        fq = oracle.random_finite_model(rng, psi_size=2, z_size=2)
        fp = oracle.random_finite_model(rng, psi_size=2, z_size=2)
        tau = oracle.random_discrete_tau(rng, fq)
        rho = oracle.random_discrete_tau(rng, fp)
        truth = oracle.true_kl_finite(fq, fp)
        for K in (1, 2, 3):
            for L in (1, 2, 3):
                eu = oracle.exact_expected_kl_upper(fq, fp, tau, rho, K, L)
                el = oracle.exact_expected_kl_lower(fq, fp, tau, rho, K, L)
                exact_ok &= el <= truth + 1e-10 <= eu + 2e-10
    dt = time.monotonic() - t0
    ok = mc_ok and exact_ok and dt < 120
    report(8, ok, f"Gaussian wrap: upper {up.value:.4f} >= 0.5 >= lower {lo.value:.4f} "
           f"within 3 SE={mc_ok}; finite enumeration sandwich at 1e-10={exact_ok}; "
           f"{dt:.0f}s (< 120)")


# -------------------------------------------------------------------------
# 9. Desk-scale VAE ordering (on make_data's digit scans, so it needs scikit-learn)
# -------------------------------------------------------------------------

def test_criterion_09_vae_ordering(digit_scans_dir, tmp_path):
    t0 = time.monotonic()
    schedules = {"hvm": "0:0", "k2": "0:0,5:2", "k5": "0:0,5:2,15:5"}
    ckpts = {}
    for tag, sched in schedules.items():
        for seed in (1, 2, 3):
            ck = str(tmp_path / f"{tag}_{seed}.ckpt")
            cfg = load_config(None, overrides={
                "experiment": "vae-train", "data_path": digit_scans_dir, "seed": str(seed),
                "epochs": "50", "subset_size": "2000", "k_schedule": sched,
                "warmup_inner_kl": "15", "out": str(tmp_path / f"{tag}_{seed}.csv"),
                "checkpoint": ck}, defaults=EXPERIMENT_DEFAULTS["vae-train"])
            run_vae(cfg)
            ckpts[(tag, seed)] = ck
    train_time = time.monotonic() - t0

    cfgd = load_config(None, overrides={"experiment": "vae-eval", "data_path": digit_scans_dir,
                                        "subset_size": "2000"},
                       defaults=EXPERIMENT_DEFAULTS["vae-eval"])
    images = _load_images(cfgd)

    def eval_mean(tag, seed, K, runs=10):
        vae, _ = load_vae_checkpoint(ckpts[(tag, seed)])
        base = RngStream(seed)
        _, val = _split_train_val(cfgd, images, base.split(2))
        eval_set = _binarize(val[:cfgd.eval_images], base.split(6))
        vals = [evaluate_vae_bound(vae, eval_set, "DIWHVI_EVAL", 100, K,
                                   base.split(97).split(r)) for r in range(runs)]
        return np.asarray(vals)

    seed_means = {tag: np.mean([eval_mean(tag, s, 16).mean() for s in (1, 2, 3)])
                  for tag in schedules}
    ordering = seed_means["hvm"] <= seed_means["k2"] <= seed_means["k5"]

    # eval-K monotonicity at fixed M on the K=5-trained models (seed pooled)
    by_k = {}
    for K in (0, 4, 16):
        pooled = np.concatenate([eval_mean("k5", s, K) for s in (1, 2, 3)])
        by_k[K] = (pooled.mean(), pooled.std(ddof=1) / math.sqrt(pooled.size))
    eval_monotone = True
    for a, b in ((0, 4), (4, 16)):
        ma, sa = by_k[a]
        mb, sb = by_k[b]
        eval_monotone &= mb >= ma - 2 * math.hypot(sa, sb)
    dt = time.monotonic() - t0
    ok = ordering and eval_monotone and dt < 3600
    kmeans = ", ".join(f"K{K}={by_k[K][0]:.2f}" for K in (0, 4, 16))
    report(9, ok,
           f"seed-mean DIWHVI(M=100,K=16): hvm {seed_means['hvm']:.2f} <= "
           f"k2 {seed_means['k2']:.2f} <= k5 {seed_means['k5']:.2f} = {ordering}; "
           f"eval-K means {kmeans} non-decreasing within 2 sigma={eval_monotone}; "
           f"train {train_time / 60:.1f} min, total {dt / 60:.1f} min (< 60)")


# -------------------------------------------------------------------------
# 10. Determinism of every experiment
# -------------------------------------------------------------------------

def _strip_wall(path):
    return [",".join(l.split(",")[:-1]) for l in open(path).read().splitlines()]


def determinism_runs(data_dir, ck):
    """Criterion 10's small config of each experiment; vae-eval reads the
    checkpoint vae-train writes to ``ck``."""
    return {
        "toy-laplace": {"steps": "15", "replicates": "2", "k": "2"},
        "snr": {"steps": "5", "replicates": "3"},
        "vae-train": {"data_path": data_dir, "subset_size": "96", "epochs": "2",
                      "checkpoint": ck},
        "vae-eval": {"data_path": data_dir, "subset_size": "96", "checkpoint": ck,
                     "m_list": "4", "k_list": "0,2", "eval_runs": "2", "eval_images": "8"},
        "bounds-check": {"n_models": "5"},
        "jackknife-study": {"n_models": "3"},
    }


def test_criterion_10_determinism(data_dir, tmp_path):
    t0 = time.monotonic()
    runs = determinism_runs(data_dir, str(tmp_path / "det.ckpt"))
    from hvi.experiments import RUNNERS
    all_ok = True
    for exp, opts in runs.items():
        outs = []
        for trial in ("a", "b"):
            out = str(tmp_path / f"{exp}-{trial}.csv")
            cfg = load_config(None, overrides=dict(opts, experiment=exp, seed="13", out=out),
                              defaults=EXPERIMENT_DEFAULTS.get(exp, {}))
            RUNNERS[exp](cfg)
            outs.append(out)
        same = _strip_wall(outs[0]) == _strip_wall(outs[1])
        all_ok &= same
        assert same, f"{exp} not byte-identical"
    dt = time.monotonic() - t0
    report(10, all_ok, f"all six experiments byte-identical modulo wall_ms; {dt:.0f}s")
