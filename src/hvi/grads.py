"""Gradient estimators for training and the SNR measurement harness.

Two estimators for the auxiliary network's parameters eta: plain
reparameterized autodiff of the bound, and the doubly reparameterized
estimator that replaces the score-like terms of the K tau-draws with pathwise
ones.  Both return gradients of the ELBO (ascent direction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dists, special
from .bounds import BoundConfig
from .models import (AuxiliaryInference, ExplicitPrior, Generative, HierarchicalModel,
                     UnsupportedModelError, log_joint, sample_joint)
from .rng import RngStream
from .tape import Tape


@dataclass
class GradEstimate:
    grads: dict[str, np.ndarray]


def grad_autodiff(build, rng: RngStream, param_prefix: str = "") -> GradEstimate:
    """Single forward/backward pass gradient of a tape-recorded objective.

    ``build(tape, rng)`` returns the scalar objective node; every sampler on
    the path must be reparameterized, which all continuous ones here are.
    """
    t = Tape()
    obj = build(t, rng)
    gmap = t.backward(obj)
    grads = {n: g for n, g in t.param_grads(gmap).items() if n.startswith(param_prefix)}
    return GradEstimate(grads=grads)


def grad_iwhvi_dreg(gen: Generative, q: HierarchicalModel, tau: AuxiliaryInference,
                    x: np.ndarray, config: BoundConfig, rng: RngStream) -> GradEstimate:
    """Doubly reparameterized gradient of the hierarchical ELBO w.r.t. tau.

    Builds a surrogate whose autodiff gradient equals the estimator: frozen
    softmax weights over replicas (alpha) and over the K+1 denominator terms
    (beta), from the log weights the bound uses, multiply per-draw log ratios,
    plus the psi_0 score-like term.  tau's conditioner runs once, on z: psi_0
    is scored with its parameter nodes live, the K draws against their
    ``stop_gradient``.  That is exact for tau's blocks, the only ones
    returned, since z does not depend on them.  Explicit priors and
    ``conditional_tau`` only: the hierarchical-prior case is nested importance
    weighting, and discrete draws have no pathwise gradient.
    """
    if not isinstance(gen.prior, ExplicitPrior):
        raise UnsupportedModelError("DReG gradient requires an explicit prior")
    if tau.params is None:
        raise UnsupportedModelError("DReG gradient requires a tau with a conditioner")
    M, K = config.M, config.K
    B = x.shape[0]
    t = Tape()
    psi0, z = sample_joint(q, x, rng, t, rows=M * B)
    p = tau.params(z, x, t)
    live = tau.family(*p)

    # k = 0 term: log weight value for the coefficients, plus the score-like
    # node carrying tau's explicit parameter dependence.
    ltau0_live = dists.log_prob(live, psi0, t)
    lw0 = np.asarray(t.val(log_joint(q, z, psi0, x, t))) - np.asarray(t.val(ltau0_live))

    if K > 0:
        psis = dists.sample_reparam(live, rng, t, n=K)
        # eta stopped inside the density, psi path live: exactly grad_psi beta.
        stopped = tau.family(*(t.stop_gradient(v) for v in p))
        lw_tail = t.sub(log_joint(q, z, psis, x, t), dists.log_prob(stopped, psis, t))
        lw_tail = t.reshape(lw_tail, (K, M * B))
        lw_all = np.concatenate([lw0[None, :], np.asarray(t.val(lw_tail))], axis=0)
    else:
        lw_tail = None
        lw_all = lw0[None, :]

    lik = np.asarray(t.val(gen.log_lik(x, z, t)))
    lpz = np.asarray(t.val(gen.prior.log_prob(z, t)))
    den = special.logsumexp(lw_all, axis=0) - np.log(K + 1)
    r = (lik + lpz - den).reshape(M, B)

    sga = special.softmax(r, axis=0).reshape(M * B)      # softmax over replicas
    sgb = special.softmax(lw_all, axis=0)                # softmax over k terms
    scale = 1.0 / B                                      # objective is a batch mean

    total = None
    if K > 0:
        coef = (sga * (sga - 2.0))[None, :] * sgb[1:] ** 2 * scale
        total = t.sum(t.mul(t.const(coef), lw_tail))
    coef0 = sga * sgb[0] * scale
    term0 = t.sum(t.mul(t.const(coef0), ltau0_live))
    total = term0 if total is None else t.add(total, term0)
    grads = t.param_grads(t.backward(total))
    missing = [name for name in tau.param_names if name not in grads]
    if missing:
        raise ValueError(f"tau's conditioner does not bind its blocks {missing}")
    return GradEstimate(grads={name: grads[name] for name in tau.param_names})


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
    all_snr = []
    n_missing = 0
    for name, lst in stacks.items():
        a = np.stack(lst, axis=0)
        mean = a.mean(axis=0)
        std = a.std(axis=0, ddof=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            snr = np.where(std > 0.0, np.abs(mean) / std, np.nan)
        per_param[name] = snr
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
                     p95=summary[2], n_missing=n_missing, replicates=replicates)
