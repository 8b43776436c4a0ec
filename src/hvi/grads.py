"""Gradient estimators for training and the SNR measurement harness.

Two estimators for the auxiliary network's parameters eta: plain
reparameterized autodiff of the bound, and the doubly reparameterized
estimator that replaces the score-like terms of the K tau-draws with pathwise
ones.  Both return gradients of the ELBO (ascent direction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundConfig
from .models import (AuxiliaryInference, ExplicitPrior, Generative, HierarchicalModel,
                     UnsupportedModelError, log_joint, rep_rows, sample_joint)
from .rng import RngStream
from .tape import ParamStore, Tape


@dataclass
class GradEstimate:
    grads: dict[str, np.ndarray]
    estimator: str                 # AUTODIFF | IWHVI_DREG


def grad_autodiff(build, store: ParamStore, rng: RngStream,
                  param_prefix: str = "") -> GradEstimate:
    """Single forward/backward pass gradient of a tape-recorded objective.

    ``build(tape, rng)`` returns the scalar objective node; every sampler on
    the path must be reparameterized, which all continuous ones here are.
    """
    t = Tape()
    obj = build(t, rng)
    gmap = t.backward(obj)
    grads = {n: g for n, g in t.param_grads(gmap).items() if n.startswith(param_prefix)}
    return GradEstimate(grads=grads, estimator="AUTODIFF")


def _softmax_cols(a: np.ndarray, axis=0) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(a - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def grad_iwhvi_dreg(gen: Generative, q: HierarchicalModel, tau: AuxiliaryInference,
                    x: np.ndarray, config: BoundConfig, store: ParamStore,
                    rng: RngStream, include_score_term: bool = True) -> GradEstimate:
    """Doubly reparameterized gradient of the hierarchical ELBO w.r.t. tau.

    Builds a surrogate whose autodiff gradient equals the estimator: frozen
    softmax weights over replicas (alpha) and over the K+1 denominator terms
    (beta) multiply per-draw log ratios evaluated with tau's parameters
    stopped (only the pathwise psi dependence stays live), plus the psi_0
    score-like term with parameters live.  The weights come from the same log
    weights the bound uses.  Explicit priors only; the hierarchical-prior
    case is nested importance weighting and out of scope.
    """
    if not isinstance(gen.prior, ExplicitPrior):
        raise UnsupportedModelError("DReG gradient requires an explicit prior")
    M, K = config.M, config.K
    B = x.shape[0]
    t = Tape()
    xm = np.tile(x, (M, 1))
    psi0, z = sample_joint(q, xm, rng, t)

    # k = 0 term: log weight value for the coefficients, plus the score-like
    # node carrying tau's explicit parameter dependence.
    ltau0_live = tau.log_prob(psi0, z, xm, t, stop_params=False)
    lw0 = np.asarray(t.val(log_joint(q, z, psi0, xm, t))) - np.asarray(t.val(ltau0_live))

    if K > 0:
        psis = tau.sample(z, xm, K, rng, t)
        z_rep = rep_rows(z, K, t)
        x_rep = np.tile(xm, (K, 1))
        # eta frozen inside the density, psi path live: exactly grad_psi beta.
        lw_tail = t.sub(log_joint(q, z_rep, psis, x_rep, t),
                        tau.log_prob(psis, z_rep, x_rep, t, stop_params=True))
        lw_tail = t.reshape(lw_tail, (K, M * B))
        lw_all = np.concatenate([lw0[None, :], np.asarray(t.val(lw_tail))], axis=0)
    else:
        lw_tail = None
        lw_all = lw0[None, :]

    lik = np.asarray(t.val(gen.log_lik(xm, z, t)))
    lpz = np.asarray(t.val(gen.prior.log_prob(z, t)))
    den = _logsumexp_np(lw_all, axis=0) - np.log(K + 1)
    r = (lik + lpz - den).reshape(M, B)

    sga = _softmax_cols(r, axis=0).reshape(M * B)        # softmax over replicas
    sgb = _softmax_cols(lw_all, axis=0)                  # softmax over k terms
    scale = 1.0 / B                                      # objective is a batch mean

    total = None
    if K > 0:
        coef = (sga * (sga - 2.0))[None, :] * sgb[1:] ** 2 * scale
        total = t.sum(t.mul(t.const(coef), lw_tail))
    if include_score_term:
        coef0 = sga * sgb[0] * scale
        term0 = t.sum(t.mul(t.const(coef0), ltau0_live))
        total = term0 if total is None else t.add(total, term0)
    if total is None:
        return GradEstimate(grads={n: np.zeros_like(store[n]) for n in tau.param_names},
                            estimator="IWHVI_DREG")
    gmap = t.backward(total)
    grads = t.param_grads(gmap)
    out = {}
    for name in tau.param_names:
        out[name] = grads.get(name, np.zeros_like(store[name]))
    return GradEstimate(grads=out, estimator="IWHVI_DREG")


def _logsumexp_np(a, axis=0):
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))


# ---------------------------------------------------------------------------
# Signal-to-noise ratio measurement
# ---------------------------------------------------------------------------

@dataclass
class SnrReport:
    """Per-parameter |mean| / std over replicate gradients.

    Coordinates with zero variance are reported missing (NaN), never as
    infinities; ``mean_snr`` and the percentiles ignore them.
    """

    per_param: dict[str, np.ndarray]
    mean_snr: float
    p5: float
    p95: float
    n_missing: int
    replicates: int
    grad_means: dict[str, np.ndarray] = field(default_factory=dict)
    grad_stds: dict[str, np.ndarray] = field(default_factory=dict)


def measure_snr(grad_fn, replicates: int, rng: RngStream) -> SnrReport:
    """Run ``grad_fn(stream)`` over independent streams and summarize SNR.

    ``grad_fn`` returns a GradEstimate or a plain name->array dict; replicate
    r uses ``rng.split(r)``.
    """
    if replicates < 2:
        raise ValueError("SNR needs at least 2 replicates")
    stacks: dict[str, list] = {}
    for r in range(replicates):
        g = grad_fn(rng.split(r))
        grads = g.grads if isinstance(g, GradEstimate) else g
        for name, arr in grads.items():
            stacks.setdefault(name, []).append(np.asarray(arr, dtype=np.float64))
    per_param = {}
    means, stds = {}, {}
    all_snr = []
    n_missing = 0
    for name, lst in stacks.items():
        a = np.stack(lst, axis=0)
        mean = a.mean(axis=0)
        std = a.std(axis=0, ddof=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            snr = np.where(std > 0.0, np.abs(mean) / std, np.nan)
        per_param[name] = snr
        means[name], stds[name] = mean, std
        n_missing += int(np.sum(~np.isfinite(snr)))
        all_snr.append(snr.reshape(-1))
    flat = np.concatenate(all_snr) if all_snr else np.array([np.nan])
    finite = flat[np.isfinite(flat)]
    if finite.size:
        summary = (float(np.mean(finite)), float(np.percentile(finite, 5)),
                   float(np.percentile(finite, 95)))
    else:
        summary = (np.nan, np.nan, np.nan)
    return SnrReport(per_param=per_param, mean_snr=summary[0], p5=summary[1],
                     p95=summary[2], n_missing=n_missing, replicates=replicates,
                     grad_means=means, grad_stds=stds)
