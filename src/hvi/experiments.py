"""Experiment drivers: seeded runs, training loops, CSV emission.

Each driver takes a validated ExperimentConfig, runs deterministically from
its seed, and returns the CsvWriter holding its rows (already written to
cfg.out).  Replicates and sweep points draw their streams from per-task
splits of the base seed, so any subset of the work reproduces bit-identically.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

from . import oracle
from .bounds import (BoundConfig, diwhvi_elbo, eval_variants, expected_kl_tau_prior,
                     lower_bound_L, upper_bound_U_joint)
from .config import ConfigError, ExperimentConfig
from .grads import grad_autodiff, grad_iwhvi_dreg, measure_snr
from .idx import IdxFormatError, load_idx, write_idx_images, write_idx_labels
from .models import (MiniVae, flat_generative, load_params, make_gamma_mlp_tau,
                     make_laplace_scale_mixture, make_mini_vae, make_snr_task,
                     prior_tau, save_params)
from .optim import Adam
from .rng import RngStream
from .runrecord import CsvWriter
from .tape import ParamStore, Tape


class DataError(RuntimeError):
    """Missing or malformed data/checkpoint; the CLI maps this to exit code 3."""


def _task_id(*parts) -> int:
    # Deterministic task key (python's hash() is salted per process).
    return zlib.crc32(repr(parts).encode()) & 0x7FFFFFFF


EVAL_CHUNK = 8          # images per evaluation bound call
DATA_SIDE = 28          # make_data's image side, MNIST's

EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "toy-laplace": dict(k=10, steps=2000, learning_rate=2e-3, batch_size=32,
                        replicates=10, dim=50, hidden=[128, 128, 128]),
    "snr": dict(steps=1000, learning_rate=1e-2, batch_size=100, replicates=1000,
                k_list=[1, 8, 64], train_k=0),
    "vae-train": dict(epochs=50, learning_rate=1e-3, batch_size=32, m=1,
                      k_schedule=[(0, 0), (5, 2), (15, 5)], hidden=[64, 64],
                      subset_size=2000),
    "vae-eval": dict(m_list=[100], k_list=[0, 4, 16], eval_runs=10, eval_images=64),
    "bounds-check": dict(n_models=50),
    "jackknife-study": dict(n_models=20),
}


# ---------------------------------------------------------------------------
# Toy Laplace (50-d scale mixture, trained Gamma tau vs SIVI)
# ---------------------------------------------------------------------------

def _toy_eval(model, tau, K, draws, rng):
    return upper_bound_U_joint(model, tau, np.zeros((draws, 0)), K,
                               rng, Tape(requires_grad=False)).value


def run_toy_laplace(cfg: ExperimentConfig) -> CsvWriter:
    out = CsvWriter(cfg.out, cfg.experiment, cfg.seed)
    model = make_laplace_scale_mixture(cfg.dim)
    truth = -cfg.dim * (1.0 + np.log(2.0))
    base = RngStream(cfg.seed)
    ks = cfg.k_list or [cfg.k]
    out.add(step=0, K=0, M=1, estimator="analytic", metric="negative_entropy_truth", value=truth)
    series: dict[tuple, list] = {}
    for ki, K in enumerate(ks):
        for rep in range(cfg.replicates):
            rng = base.split(ki * 1000 + rep)
            store = ParamStore()
            tau = make_gamma_mlp_tau(cfg.dim, tuple(cfg.hidden), store, rng)
            sivi = prior_tau(model)
            opt = Adam(store, store.names("tau."), lr=cfg.learning_rate)
            xb = np.zeros((cfg.batch_size, 0))

            def record_point(step, draws):
                erng = base.split(900000 + ki * 1000 + rep).split(step)
                for name, t_tau in (("iwhvi", tau), ("sivi", sivi)):
                    v = _toy_eval(model, t_tau, K, draws, erng.split(0 if name == "iwhvi" else 1))
                    out.add(step=step, K=K, M=1,
                            estimator=f"{name}/rep{rep}", metric="bound", value=v)
                    series.setdefault((K, step, name), []).append(v)

            record_point(0, cfg.eval_draws)
            for step in range(1, cfg.steps + 1):
                t = Tape()
                est = upper_bound_U_joint(model, tau, xb, K, rng, t)
                opt.descend(t.param_grads(t.backward(est.node)))
                if step % cfg.eval_every == 0 and step != cfg.steps:
                    record_point(step, cfg.eval_draws)
            record_point(cfg.steps, cfg.final_eval_draws)
    for (K, step, name), vals in sorted(series.items()):
        out.add_ci90(vals, step=step, K=K, M=1, estimator=name, metric="bound_ci90")
    out.write()
    return out


# ---------------------------------------------------------------------------
# SNR study (conjugate 10-d pair)
# ---------------------------------------------------------------------------

def train_snr_tau(cfg: ExperimentConfig, store: ParamStore, model, tau, rng: RngStream):
    """AMSGrad training of the linear tau to optimality at K = train_k."""
    gen = flat_generative()
    opt = Adam(store, ["snr.A", "snr.b"], lr=cfg.learning_rate, amsgrad=True)
    xb = np.zeros((cfg.batch_size, 0))
    for _ in range(cfg.steps):
        t = Tape()
        est = diwhvi_elbo(gen, model, tau, None, xb, BoundConfig(M=1, K=cfg.train_k), rng, t)
        opt.descend(t.param_grads(t.backward(t.neg(est.node))))


def snr_grad_fn(kind: str, gen, model, tau, batch: int, K: int):
    """Gradient-of-the-ELBO callables for the three estimators under study."""
    xb = np.zeros((batch, 0))

    if kind == "autodiff":
        def fn(rng):
            def build(t, r):
                return diwhvi_elbo(gen, model, tau, None, xb, BoundConfig(M=1, K=K), r, t).node
            return grad_autodiff(build, rng, param_prefix="snr.")
        return fn
    if kind == "dreg":
        def fn(rng):
            return grad_iwhvi_dreg(gen, model, tau, xb, BoundConfig(M=1, K=K), rng)
        return fn
    if kind == "iwae":
        # Lower-bound direction: autodiff through L_K at marginal draws.
        def fn(rng):
            def build(t, r):
                from .models import sample_joint
                _, z = sample_joint(model, xb, r, t)
                return lower_bound_L(model, tau, t.const(t.val(z)), xb, max(K, 1), r, t).node
            return grad_autodiff(build, rng, param_prefix="snr.")
        return fn
    raise ValueError(kind)


def run_snr(cfg: ExperimentConfig) -> CsvWriter:
    out = CsvWriter(cfg.out, cfg.experiment, cfg.seed)
    base = RngStream(cfg.seed)
    store = ParamStore()
    model, tau, store = make_snr_task(store, base.split(0))
    train_snr_tau(cfg, store, model, tau, base.split(1))
    theta = np.ones(10)
    err_a = float(np.max(np.abs(store["snr.A"] - 0.5 * np.eye(10))))
    err_b = float(np.max(np.abs(store["snr.b"] - 0.5 * theta)))
    out.add(step=cfg.steps, K=cfg.train_k, M=1,
            estimator="amsgrad", metric="trained_A_maxerr", value=err_a)
    out.add(step=cfg.steps, K=cfg.train_k, M=1,
            estimator="amsgrad", metric="trained_b_maxerr", value=err_b)
    gen = flat_generative()
    for K in (cfg.k_list or [cfg.k]):
        for kind in ("autodiff", "dreg", "iwae"):
            fn = snr_grad_fn(kind, gen, model, tau, cfg.batch_size, K)
            rep = measure_snr(fn, cfg.replicates, base.split(_task_id("snr", K, kind)))
            out.add(step=cfg.steps, K=K, M=1,
                    estimator=kind, metric="snr_mean", value=rep.mean_snr)
            finite = [v[np.isfinite(v)].ravel() for v in rep.per_param.values()]
            out.add_ci90(np.concatenate(finite), step=cfg.steps, K=K, M=1, estimator=kind,
                         metric="snr_median_ci90")
    out.write()
    return out


# ---------------------------------------------------------------------------
# Mini VAE training and evaluation
# ---------------------------------------------------------------------------

def _load_images(cfg: ExperimentConfig) -> np.ndarray:
    if not cfg.data_path:
        raise DataError("data_path is required; run `hvi make-data` to materialize IDX files")
    path = cfg.data_path
    if os.path.isdir(path):
        path = os.path.join(path, "train-images-idx3-ubyte")
    if not os.path.exists(path):
        raise DataError(f"IDX image file not found: {path}")
    try:
        images = load_idx(path)
    except IdxFormatError as exc:
        raise DataError(str(exc)) from exc
    if images.ndim != 3:
        raise DataError(f"{path}: expected an image tensor, got shape {images.shape}")
    return images.reshape(images.shape[0], -1)


def _split_train_val(cfg, images, rng):
    n = min(cfg.subset_size, images.shape[0])
    order = np.argsort(rng.uniform((images.shape[0],)), kind="stable")
    subset = images[order[:n]]
    n_val = int(round(n * cfg.val_fraction))
    return subset[n_val:], subset[:n_val]


def _binarize(images, rng):
    return (rng.uniform(images.shape) < images).astype(np.float64)


def _batches(data, batch_size: int, order_rng: RngStream):
    """Batches of ``data`` in an order drawn from ``order_rng``, a last partial one dropped."""
    order = np.argsort(order_rng.uniform((data.shape[0],)), kind="stable")
    for lo in range(0, data.shape[0] - batch_size + 1, batch_size):
        yield data[order[lo:lo + batch_size]]


def run_vae(cfg: ExperimentConfig) -> CsvWriter:
    for name in ("warmup_inner_kl", "warmup_outer_kl"):
        if cfg.estimator == "dreg" and getattr(cfg, name) > 0:
            raise ConfigError(f"estimator=dreg assumes the unwarmed bound; disable {name}")
    out = CsvWriter(cfg.out, cfg.experiment, cfg.seed)
    base = RngStream(cfg.seed)
    images = _load_images(cfg)
    train, val = _split_train_val(cfg, images, base.split(2))
    arch = [images.shape[1], cfg.z_dim, cfg.psi_dim] + list(cfg.hidden)
    vae = make_mini_vae(*arch[:3], tuple(cfg.hidden), base.split(0))
    store = vae.store
    opt = Adam(store, store.names(), lr=cfg.learning_rate)
    train_root = base.split(1)
    fixed = _binarize(train, base.split(3)) if cfg.binarization == "fixed" else None
    step_counter = 0
    for epoch in range(cfg.epochs):
        K = cfg.k_at_epoch(epoch)
        opt.lr = cfg.lr_at_epoch(epoch)
        w_inner = cfg.warmup_weight(epoch, cfg.warmup_inner_kl)
        w_outer = cfg.warmup_weight(epoch, cfg.warmup_outer_kl)
        epoch_rng = base.split(4).split(epoch)
        data = fixed if fixed is not None else _binarize(train, epoch_rng)
        bounds_seen = []
        for xb in _batches(data, cfg.batch_size, epoch_rng):
            step_counter += 1
            rng_a = train_root.split(step_counter)
            t = Tape()
            est = diwhvi_elbo(vae.gen, vae.q, vae.tau, None, xb,
                              BoundConfig(M=cfg.m, K=K), rng_a, t,
                              w_inner=w_inner, w_outer=w_outer)
            grads = t.param_grads(t.backward(t.neg(est.node)))
            if cfg.estimator == "dreg":
                # tau's blocks come from DReG alone, replacing the ELBO's.
                rng_b = train_root.split(step_counter)   # same stream: same draws
                dreg = grad_iwhvi_dreg(vae.gen, vae.q, vae.tau, xb,
                                       BoundConfig(M=cfg.m, K=K), rng_b)
                for name, g in dreg.grads.items():
                    grads[name] = -g                     # ascent on the ELBO
            opt.descend(grads)
            bounds_seen.append(est.value)
        out.add(step=epoch, K=K, M=cfg.m,
                estimator=cfg.estimator, metric="train_bound", value=float(np.mean(bounds_seen)))
    k_end = cfg.k_at_epoch(cfg.epochs)
    kl_diag = expected_kl_tau_prior(vae.q, vae.tau, train[:256], 1024, base.split(5))
    out.add(step=cfg.epochs, K=k_end, M=cfg.m, estimator=cfg.estimator,
            metric="expected_kl_tau_prior", value=kl_diag)
    if val.size:
        vb = evaluate_vae_bound(vae, _binarize(val, base.split(6)), "DIWHVI_EVAL", 16, k_end,
                                base.split(7))
        out.add(step=cfg.epochs, K=k_end, M=16, estimator=cfg.estimator, metric="val_bound",
                value=vb)
    if cfg.checkpoint:
        store["meta.arch"] = np.array(arch, dtype=np.float64)
        save_params(cfg.checkpoint, store)
    out.write()
    return out


def evaluate_vae_bound(vae: MiniVae, images: np.ndarray, variant: str, M: int, K: int,
                       rng: RngStream) -> float:
    """Mean per-image evaluation bound over an image set, EVAL_CHUNK images per call."""
    vals = []
    for lo in range(0, images.shape[0], EVAL_CHUNK):
        xb = images[lo:lo + EVAL_CHUNK]
        est = eval_variants(vae.gen, vae.q, vae.tau, xb, M, K, variant, rng,
                            Tape(requires_grad=False))
        vals.append(np.asarray(est.per_x))
    return float(np.mean(np.concatenate(vals)))


def load_vae_checkpoint(path: str) -> tuple[MiniVae, dict]:
    if not os.path.exists(path):
        raise DataError(f"checkpoint not found: {path}")
    try:
        blocks = load_params(path)
    except ValueError as exc:
        raise DataError(f"corrupt checkpoint {path}: {exc}") from exc
    if "meta.arch" not in blocks:
        raise DataError(f"checkpoint {path} lacks the meta.arch block")
    arch = blocks["meta.arch"]
    if (arch.ndim != 1 or arch.size < 3 or not np.all(np.isfinite(arch))
            or np.any(arch != np.round(arch)) or np.any(arch < 1)):
        raise DataError(f"checkpoint {path}: meta.arch must hold at least 3 integers >= 1 "
                        f"(input, z and psi dims, then hidden widths), got {arch.tolist()}")
    arch = [int(a) for a in arch]
    vae = make_mini_vae(arch[0], arch[1], arch[2], tuple(arch[3:]), RngStream(0))
    expected = {name: vae.store[name].shape for name in vae.store.names()}
    found = {name: value.shape for name, value in blocks.items() if name != "meta.arch"}
    for name in sorted(expected.keys() | found.keys()):
        if name not in found:
            raise DataError(f"checkpoint {path} lacks block {name!r} of its meta.arch")
        if name not in expected:
            raise DataError(f"checkpoint {path} has block {name!r}, unknown to its meta.arch")
        if found[name] != expected[name]:
            raise DataError(f"checkpoint {path}: block {name!r} has shape {found[name]}, "
                            f"its meta.arch gives {expected[name]}")
    for name in found:
        vae.store[name] = blocks[name]
    return vae, blocks


def refit_tau(cfg: ExperimentConfig, vae: MiniVae, train: np.ndarray, rng: RngStream) -> None:
    """Fit tau to a trained model, q and p frozen (tau blocks step, rest do not)."""
    opt = Adam(vae.store, vae.store.names("tau."), lr=cfg.learning_rate)
    ctr = 0
    for epoch in range(cfg.refit_epochs):
        data = _binarize(train, rng.split(epoch))
        for xb in _batches(data, cfg.batch_size, rng.split(500 + epoch)):
            ctr += 1
            t = Tape()
            est = diwhvi_elbo(vae.gen, vae.q, vae.tau, None, xb,
                              BoundConfig(M=1, K=max(cfg.k, 1)), rng.split(1000000 + ctr), t)
            opt.descend(t.param_grads(t.backward(t.neg(est.node))))


def run_vae_eval(cfg: ExperimentConfig) -> CsvWriter:
    out = CsvWriter(cfg.out, cfg.experiment, cfg.seed)
    base = RngStream(cfg.seed)
    vae, blocks = load_vae_checkpoint(cfg.checkpoint)
    images = _load_images(cfg)
    width = int(blocks["meta.arch"][0])
    if images.shape[1] != width:
        raise DataError(f"{cfg.data_path}: images have {images.shape[1]} pixels, but checkpoint "
                        f"{cfg.checkpoint} takes {width} inputs")
    train, val = _split_train_val(cfg, images, base.split(2))
    if cfg.refit_epochs > 0:
        refit_tau(cfg, vae, train, base.split(11))
    eval_pool = val if val.shape[0] >= cfg.eval_images else images
    eval_set = _binarize(eval_pool[:cfg.eval_images], base.split(6))
    series: dict[tuple, list] = {}
    for variant in cfg.variants:
        for M in (cfg.m_list or [cfg.m]):
            for K in (cfg.k_list or [cfg.k]):
                for run in range(cfg.eval_runs):
                    rng = base.split(_task_id(variant, M, K)).split(run)
                    v = evaluate_vae_bound(vae, eval_set, variant, M, K, rng)
                    out.add(step=run, K=K, M=M, estimator=variant, metric="eval_bound", value=v)
                    series.setdefault((variant, M, K), []).append(v)
    for (variant, M, K), vals in sorted(series.items()):
        out.add_ci90(vals, step=cfg.eval_runs, K=K, M=M, estimator=variant,
                     metric="eval_bound_ci90")
    out.write()
    return out


# ---------------------------------------------------------------------------
# Enumeration-backed studies
# ---------------------------------------------------------------------------

def run_bounds_check(cfg: ExperimentConfig) -> CsvWriter:
    out = CsvWriter(cfg.out, cfg.experiment, cfg.seed)
    base = RngStream(cfg.seed)
    for i in range(cfg.n_models):
        rng = base.split(i)
        model = oracle.random_finite_model(rng)
        tau = oracle.random_discrete_tau(rng, model)
        logq = oracle.exact_log_marginal_finite(model, 0)
        out.add(step=i, K=0, M=1, estimator="enumeration", metric="log_marginal", value=logq)
        for K in range(5):
            eu = oracle.exact_expected_bound(model, tau, 0, K, "U")
            el = oracle.exact_expected_bound(model, tau, 0, max(K, 1), "L")
            out.add(step=i, K=K, M=1, estimator="enumeration", metric="expected_upper", value=eu)
            out.add(step=i, K=K, M=1, estimator="enumeration", metric="expected_lower", value=el)
            out.add(step=i, K=K, M=1, estimator="enumeration", metric="sandwich_holds",
                    value=float(el <= logq + 1e-10 and logq <= eu + 1e-10))
    out.write()
    return out


def run_jackknife_study(cfg: ExperimentConfig) -> CsvWriter:
    out = CsvWriter(cfg.out, cfg.experiment, cfg.seed)
    base = RngStream(cfg.seed)
    for i in range(cfg.n_models):
        rng = base.split(i)
        model = oracle.random_finite_model(rng)
        tau = oracle.random_discrete_tau(rng, model)
        logq = oracle.exact_log_marginal_finite(model, 0)
        for K in (3, 4, 5):
            eu = oracle.exact_expected_bound(model, tau, 0, K, "U")
            ej = oracle.exact_expected_bound(model, tau, 0, K, ("J", min(cfg.j, K)))
            out.add(step=i, K=K, M=1,
                    estimator="enumeration", metric="upper_bias", value=abs(eu - logq))
            out.add(step=i, K=K, M=1,
                    estimator="enumeration", metric="jackknife_bias", value=abs(ej - logq))
    out.write()
    return out


# ---------------------------------------------------------------------------
# Offline dataset materialization
# ---------------------------------------------------------------------------

def make_data(out_dir: str) -> tuple[str, str]:
    """Write the bundled handwritten-digit images as IDX files.

    Uses scikit-learn's offline digits set (1797 real 8x8 scans), upscaled to
    DATA_SIDE pixels a side by nearest neighbor.  Returns (images_path, labels_path).
    """
    try:
        from sklearn.datasets import load_digits
    except ImportError as exc:
        raise DataError("scikit-learn is required for make-data "
                        "(pip install artifact[data])") from exc
    digits = load_digits()
    imgs = digits.images / 16.0
    idx = (np.arange(DATA_SIDE) * imgs.shape[1]) // DATA_SIDE
    up = imgs[:, idx][:, :, idx]
    os.makedirs(out_dir, exist_ok=True)
    img_path = os.path.join(out_dir, "train-images-idx3-ubyte")
    lab_path = os.path.join(out_dir, "train-labels-idx1-ubyte")
    write_idx_images(img_path, up)
    write_idx_labels(lab_path, digits.target)
    return img_path, lab_path


RUNNERS = {
    "toy-laplace": run_toy_laplace,
    "snr": run_snr,
    "vae-train": run_vae,
    "vae-eval": run_vae_eval,
    "bounds-check": run_bounds_check,
    "jackknife-study": run_jackknife_study,
}
