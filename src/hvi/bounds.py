"""Sandwich bounds on marginal log densities, hierarchical ELBOs, KL bounds,
evaluation variants, and the jackknife-debiased estimator.

All weight arithmetic is in log space through a stable log-sum-exp; the toy
density ratios span tens of nats and linear space would overflow.  Layout
convention (see ``models``): nothing is tiled; x keeps its B rows, z its R
rows, and k draws per row of z stack k-major into k·R rows that meet them
by broadcasting, so a flat (k*R,) log-weight vector reshapes to (k, R) and
reduces over axis 0.  On a no-grad tape the tall per-row densities (log
q(z | psi) and log p(x | z)) run in consecutive row slices of whole blocks,
R rows of draws against z or B rows of z against x (``_row_blocks``), and
their values are joined in order; a grad tape makes one call.

The joint-sample index psi_0 always occupies slot 0 and is drawn from the
model joint (or its exact posterior when one exists), never from tau; the
jackknife subset averages keep it in every subset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import special
from .models import (AuxiliaryInference, ExplicitPrior, Generative, HierarchicalModel,
                     HierarchicalPrior, UnsupportedModelError, cat_rows, log_joint, n_rows,
                     prior_tau, sample_joint, with_first)
from .rng import RngStream
from .tape import NodeId, Tape

@dataclass(frozen=True)
class BoundConfig:
    """Sample counts for one estimator invocation: M replicas per x row, K tau
    draws per replica, L rho draws for a hierarchical prior."""

    M: int = 1
    K: int = 0
    L: int = 1

    def __post_init__(self):
        if self.M < 1 or self.K < 0 or self.L < 1:
            raise ValueError("require M >= 1, K >= 0, L >= 1")


@dataclass
class Estimate:
    """Scalar bound value plus the log weights behind its final log-mean-exp."""

    value: float
    node: NodeId | None
    log_weights: np.ndarray
    ess: float
    per_x: np.ndarray = field(default=None)
    diagnostics: dict = field(default_factory=dict)


def effective_sample_size(log_weights: np.ndarray) -> float:
    """(sum w)^2 / sum w^2 over each column's normalized weights, averaged across columns."""
    lw = np.asarray(log_weights, dtype=np.float64)
    m = np.max(lw, axis=0, keepdims=True)
    finite = np.isfinite(m)
    m = np.where(finite, m, 0.0)
    w = np.exp(lw - m)
    s1 = np.sum(w, axis=0)
    s2 = np.sum(w * w, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ess = np.where(s2 > 0, s1 * s1 / s2, np.nan)
    if not np.any(np.isfinite(ess)):
        return float("nan")
    return float(np.nanmean(ess))


# Row budgets of one slice of a no-grad per-row density (``_row_blocks``).
# At the mini VAE's widths, 2048 rows of log q(z | psi) make 1 MB per 64-wide
# hidden array and 256 rows of log p(x | z) 1.6 MB per 784-wide logit array,
# so the allocator reuses a slice's temporaries for the next slice instead of
# mapping, faulting in and returning full-size arrays on every chunk.
COND_ROWS = 2048
LIK_ROWS = 256


def _row_blocks(density, args, block: int, budget: int, t: Tape):
    """``density(*args, t)``, one value per row of the tallest of ``args``.

    On a no-grad tape the args of the tallest row count are cut into
    consecutive row slices, each a whole number of ``block`` rows (the rows
    they broadcast against): as many as fit in ``budget`` rows, at least one.
    Shorter args pass whole, and the slices' values are joined in order.
    Each row's arithmetic does not depend on the rows beside it, so the bits
    are those of one call.  A grad tape makes one call: it keeps every
    intermediate for backward anyway.
    """
    if t.requires_grad:
        return density(*args, t)
    rows = max(n_rows(a, t) for a in args)
    step = max(1, budget // block) * block
    if rows <= step:
        return density(*args, t)

    def cut(a, lo, hi):
        if n_rows(a, t) != rows:
            return a
        return t.slice_rows(a, lo, hi) if isinstance(a, NodeId) else a[lo:hi]

    return cat_rows([density(*(cut(a, lo, min(lo + step, rows)) for a in args), t)
                     for lo in range(0, rows, step)], t)


def _finish(t: Tape, node, log_weights, per_x, diagnostics=None) -> Estimate:
    """Estimate of scalar ``node`` from its (m, rows) log-weight and per-row nodes."""
    lw = np.asarray(t.val(log_weights))
    diag = diagnostics or {}
    degenerate = int(np.sum(~np.isfinite(np.max(lw, axis=0))))
    if degenerate:
        diag["degenerate_rows"] = degenerate
    return Estimate(value=float(t.val(node)), node=node if t.requires_grad else None,
                    log_weights=lw, ess=effective_sample_size(lw),
                    per_x=np.asarray(t.val(per_x)), diagnostics=diag)


# ---------------------------------------------------------------------------
# Marginal log density bounds
# ---------------------------------------------------------------------------

def _iw_average(model: HierarchicalModel, aux: AuxiliaryInference, z, x, n: int,
                rng: RngStream, t: Tape, first=None, w_inner=1.0):
    """log[(1/m) sum_j model(z, psi_j | x) / aux(psi_j | z, x)] per row.

    The psi_j are n draws from aux, preceded by ``first`` (the self-sample
    psi_0) when given, so m is n or n + 1.  Each log weight is log model(z |
    psi) + w_inner (log model(psi | x) - log aux(psi | z, x)); ``w_inner`` < 1
    is the inner KL warm-up used during training, 1 gives the bound.  aux's
    parameters stay live.  Returns (per-row node, (m, rows) log-weight matrix node).
    """
    rows = n_rows(z, t)
    m = n + (first is not None)
    if aux.prior_of is model:
        # aux is model(psi | x) itself: the bracket is exactly 0, so draw from
        # the model's psi sampler and leave both densities out.
        psis = with_first(first, model.sample_psi(x, n * rows, rng, t) if n > 0 else None, t)
    else:
        psis, laux = aux.sample_and_score(z, x, n, first, rng, t)
    lw = _row_blocks(model.log_z_given_psi, (z, psis, x), rows, COND_ROWS, t)
    if aux.prior_of is not model:
        inner = t.sub(model.log_psi_prior(psis, x, t), laux)
        if w_inner != 1.0:
            inner = t.mul(float(w_inner), inner)
        lw = t.add(lw, inner)
    lw_mat = t.reshape(lw, (m, rows))
    return t.logmeanexp(lw_mat, axis=0), lw_mat


def upper_bound_U(q: HierarchicalModel, tau: AuxiliaryInference, z, x, K: int,
                  rng: RngStream, t: Tape | None = None) -> Estimate:
    """Upper bound on log q(z | x) for a given z.

    Standalone calls draw psi_0 from the exact inverse q(psi | z, x), so the
    model must expose posterior sampling (finite models, conjugate pairs);
    inside the ELBO estimators the same quantity arises from joint sampling
    instead.  K = 0 is allowed: the self-sample alone gives the HVM-style
    upper bound.
    """
    if t is None:
        t = Tape(requires_grad=False)
    if q.sample_psi_posterior is None:
        raise UnsupportedModelError(
            "standalone upper bound needs exact posterior sampling over psi")
    psi0 = q.sample_psi_posterior(z, x, rng, t)
    den, lw_mat = _iw_average(q, tau, z, x, K, rng, t, first=psi0)
    return _finish(t, t.mean(den), lw_mat, den)


def upper_bound_U_joint(q, tau, x, K, rng, t: Tape | None = None) -> Estimate:
    """Upper-bound estimator in the joint-sampling context: (psi_0, z) ~ q."""
    if t is None:
        t = Tape(requires_grad=False)
    psi0, z = sample_joint(q, x, rng, t)
    den, lw_mat = _iw_average(q, tau, z, x, K, rng, t, first=psi0)
    return _finish(t, t.mean(den), lw_mat, den)


def lower_bound_L(q: HierarchicalModel, tau: AuxiliaryInference, z, x, K: int,
                  rng: RngStream, t: Tape | None = None) -> Estimate:
    """Importance-weighted lower bound on log q(z | x); needs K >= 1 draws."""
    if K < 1:
        raise ValueError("lower bound requires K >= 1 (empty average otherwise)")
    if t is None:
        t = Tape(requires_grad=False)
    per, lw_mat = _iw_average(q, tau, z, x, K, rng, t)
    return _finish(t, t.mean(per), lw_mat, per)


# ---------------------------------------------------------------------------
# Hierarchical ELBOs
# ---------------------------------------------------------------------------

def _prior_term(prior, rho, z, x, L, rng, t):
    if isinstance(prior, ExplicitPrior):
        return prior.log_prob(z, t)
    if rho is None:
        raise ValueError("hierarchical prior requires an auxiliary inference rho")
    return _iw_average(prior.model, rho, z, x, L, rng, t)[0]


def diwhvi_elbo(gen: Generative, q: HierarchicalModel, tau: AuxiliaryInference,
                rho, x: np.ndarray, config: BoundConfig, rng: RngStream,
                t: Tape | None = None, w_inner: float = 1.0, w_outer: float = 1.0) -> Estimate:
    """Doubly importance weighted hierarchical ELBO (M replicas per x row).

    Generative process, repeated independently M times per row: psi_0 from
    q(psi | x), z from q(z | psi_0, x), K draws from tau(. | z, x), and for a
    hierarchical prior L draws from rho(. | z).  Costs M(1+K) psi samples and
    M L zeta samples per row.  M = 1 is the plain hierarchical ELBO.
    """
    if t is None:
        t = Tape(requires_grad=False)
    M, K, L = config.M, config.K, config.L
    B = x.shape[0]
    psi0, z = sample_joint(q, x, rng, t, rows=M * B)
    den, lw_mat = _iw_average(q, tau, z, x, K, rng, t, first=psi0, w_inner=w_inner)
    lik = _row_blocks(gen.log_lik, (x, z), B, LIK_ROWS, t)
    pterm = _prior_term(gen.prior, rho, z, x, L, rng, t)
    gap = t.sub(pterm, den)
    if w_outer != 1.0:
        gap = t.mul(float(w_outer), gap)
    ratio = t.add(lik, gap)                       # (M*B,)
    r_mat = t.reshape(ratio, (M, B))
    per_x = t.logmeanexp(r_mat, axis=0)
    return _finish(t, t.mean(per_x), r_mat if M > 1 else lw_mat, per_x,
                   {"cond_evals": M * (K + 1)})


def iwhvi_elbo(gen, q, tau, rho, x, config: BoundConfig, rng, t=None, **kw) -> Estimate:
    """Single-z hierarchical ELBO; the M = 1 slice of the DIWHVI estimator."""
    if config.M != 1:
        raise ValueError("iwhvi_elbo requires M = 1; use diwhvi_elbo for M > 1")
    return diwhvi_elbo(gen, q, tau, rho, x, config, rng, t, **kw)


def sivi_elbo(gen, q, x, K, rng, t=None) -> Estimate:
    """Semi-implicit ELBO: the hierarchical bound with tau := q(psi | x)."""
    return diwhvi_elbo(gen, q, prior_tau(q), None, x, BoundConfig(K=K), rng, t)


def sivi_reused(gen: Generative, q: HierarchicalModel, x, M: int, K: int,
                rng: RngStream, t: Tape | None = None) -> Estimate:
    """Multisample semi-implicit bound with one shared psi_{1:K} pool per row.

    The denominator uses conditional densities only (tau = q(psi|x) cancels);
    the pool is drawn once and reused for every z_m, so psi sampling is
    O(M + K) while density evaluation stays M(K+1) per row; z meets psi_0 and
    each B-row pool entry untiled.  K is the pool size; ``eval_variants``
    passes M K for SIVI_EQUISAMPLE.
    """
    if not isinstance(gen.prior, ExplicitPrior):
        raise UnsupportedModelError("sample-reuse bound is defined for explicit priors")
    if t is None:
        t = Tape(requires_grad=False)
    B = x.shape[0]
    psi0, z = sample_joint(q, x, rng, t, rows=M * B)
    pool = [q.sample_psi(x, B, rng, t) for _ in range(K)]   # K draws of (B, .)
    lcond = cat_rows([_row_blocks(q.log_z_given_psi, (z, psi, x), B, COND_ROWS, t)
                      for psi in [psi0] + pool], t)
    lw_mat = t.reshape(lcond, (K + 1, M * B))
    den = t.logmeanexp(lw_mat, axis=0)
    lik = _row_blocks(gen.log_lik, (x, z), B, LIK_ROWS, t)
    ratio = t.add(lik, t.sub(gen.prior.log_prob(z, t), den))
    r_mat = t.reshape(ratio, (M, B))
    per_x = t.logmeanexp(r_mat, axis=0)
    return _finish(t, t.mean(per_x), r_mat if M > 1 else lw_mat, per_x,
                   {"cond_evals": M * (K + 1)})


EVAL_VARIANTS = ("SIVI_LIKE", "SIVI_EQUICOMP", "SIVI_EQUISAMPLE", "DIWHVI_EVAL")


def eval_variants(gen, q, tau, x, M, K, variant: str, rng, t=None) -> Estimate:
    """Evaluation-protocol estimators; all are lower bounds on log p(x).

    SIVI_LIKE uses M*K independent prior draws, SIVI_EQUICOMP the shared-pool
    bound with M+K draws, SIVI_EQUISAMPLE an M*K shared pool matching the
    DIWHVI sample budget at O(M^2 K) density cost, DIWHVI_EVAL the trained-tau
    bound.  Estimates carry a ``cond_evals`` per-row counter.
    """
    if t is None:
        t = Tape(requires_grad=False)
    if variant == "SIVI_LIKE":
        return diwhvi_elbo(gen, q, prior_tau(q), None, x, BoundConfig(M=M, K=K), rng, t)
    if variant == "SIVI_EQUICOMP":
        return sivi_reused(gen, q, x, M, K, rng, t)
    if variant == "SIVI_EQUISAMPLE":
        return sivi_reused(gen, q, x, M, M * K, rng, t)
    if variant == "DIWHVI_EVAL":
        return diwhvi_elbo(gen, q, tau, None, x, BoundConfig(M=M, K=K), rng, t)
    raise ValueError(f"unknown evaluation variant {variant!r}")


# ---------------------------------------------------------------------------
# KL sandwich
# ---------------------------------------------------------------------------

def kl_upper_bound(q: HierarchicalModel, prior, tau, rho, x, K: int, L: int,
                   rng: RngStream, t: Tape | None = None) -> Estimate:
    """Upper bound on KL(q(z|x) || p(z)) for hierarchical q and p.

    One replicate per row of x; (z, psi_0) come from the q joint, the
    numerator from K tau draws plus the self term, the denominator from L
    rho draws (or log p(z) exactly for an explicit prior).
    """
    if t is None:
        t = Tape(requires_grad=False)
    psi0, z = sample_joint(q, x, rng, t)
    num, lw_mat = _iw_average(q, tau, z, x, K, rng, t, first=psi0)
    den = _prior_term(prior, rho, z, x, L, rng, t)
    per = t.sub(num, den)
    return _finish(t, t.mean(per), lw_mat, per)


def kl_lower_bound(q: HierarchicalModel, prior, tau, rho, x, K: int, L: int,
                   rng: RngStream, t: Tape | None = None) -> Estimate:
    """Lower bound on KL(q(z|x) || p(z)); needs the true inverse p(zeta | z).

    Only priors exposing exact posterior sampling qualify (finite models and
    conjugate wraps); anything else raises UnsupportedModelError.
    """
    if K < 1:
        raise ValueError("KL lower bound requires K >= 1")
    if not isinstance(prior, HierarchicalPrior):
        raise UnsupportedModelError("KL lower bound applies to hierarchical priors")
    p = prior.model
    if p.sample_psi_posterior is None:
        raise UnsupportedModelError(
            "KL lower bound requires exact inverse sampling p(zeta | z)")
    if t is None:
        t = Tape(requires_grad=False)
    _, z = sample_joint(q, x, rng, t)
    num, _ = _iw_average(q, tau, z, x, K, rng, t)
    zeta0 = p.sample_psi_posterior(z, x, rng, t)
    den, lwp_mat = _iw_average(p, rho, z, x, L, rng, t, first=zeta0)
    per = t.sub(num, den)
    return _finish(t, t.mean(per), lwp_mat, per)


# ---------------------------------------------------------------------------
# Resampling process (verified against its closed-form marginal)
# ---------------------------------------------------------------------------

def omega_sample(model: HierarchicalModel, tau: AuxiliaryInference, z, x, K: int,
                 rng: RngStream):
    """Draw K+1 from tau, self-normalize joint/tau weights, move a categorical
    pick to the front.  Returns the reordered draws as a list."""
    t = Tape(requires_grad=False)
    rows = n_rows(z, t)
    draws, ltau = tau.sample_and_score(z, x, K + 1, None, rng, t)
    lw = t.val(t.sub(log_joint(model, z, draws, x, t), ltau))
    lw = np.asarray(lw).reshape(K + 1, rows)
    draws_v = t.val(draws) if isinstance(draws, NodeId) else np.asarray(draws)
    draws_v = draws_v.reshape((K + 1, rows) + draws_v.shape[1:])
    # One contiguous row of K + 1 weights per z row, so each row's sum keeps
    # the pairwise order of a 1-d sum; one categorical call draws every pick.
    lw = np.ascontiguousarray(lw.T)
    w = np.exp(lw - np.max(lw, axis=1, keepdims=True))
    picks = rng.categorical(w / w.sum(axis=1, keepdims=True))
    out = []
    for b, h in enumerate(picks):
        order = [h] + [i for i in range(K + 1) if i != h]
        out.append(draws_v[order, b])
    return out


# ---------------------------------------------------------------------------
# Jackknife debiasing
# ---------------------------------------------------------------------------

def sharot_coeff(K: int, J: int, j: int) -> float:
    """Generalized-jackknife combination weight c(K, J, j)."""
    if not 0 <= j <= J <= K:
        raise ValueError("require 0 <= j <= J <= K")
    return ((-1) ** j) * (K - j) ** J / (math.factorial(J - j) * math.factorial(j))


def jackknife_U(q: HierarchicalModel, tau: AuxiliaryInference, z, x, K: int, J: int,
                rng: RngStream) -> Estimate:
    """Bias-corrected upper-bound estimator (no bound guarantee for J >= 1).

    One set of draws (psi_0 from the exact inverse, psi_{1:K} from tau) feeds
    every subset average; subsets always retain psi_0.
    """
    if J > K:
        raise ValueError("jackknife order must satisfy J <= K")
    t = Tape(requires_grad=False)
    if q.sample_psi_posterior is None:
        raise UnsupportedModelError("jackknife_U needs exact posterior sampling")
    psi0 = q.sample_psi_posterior(z, x, rng, t)
    _, lw_mat = _iw_average(q, tau, z, x, K, rng, t, first=psi0)
    lw = np.asarray(t.val(lw_mat))                    # (K+1, rows)
    total = np.zeros(lw.shape[1])
    for j in range(J + 1):
        # Every size-(K - j) subset of the draws, each led by psi_0 (slot 0).
        idx = np.array([(0,) + S for S in itertools.combinations(range(1, K + 1), K - j)])
        vals = np.mean(special.logsumexp(lw[idx], axis=1), axis=0) - np.log(K - j + 1)
        total += sharot_coeff(K, J, j) * vals
    value = float(np.mean(total))
    return Estimate(value=value, node=None, log_weights=lw,
                    ess=effective_sample_size(lw), per_x=total,
                    diagnostics={"J": J})


# ---------------------------------------------------------------------------
# Collapse diagnostic
# ---------------------------------------------------------------------------

def expected_kl_tau_prior(q: HierarchicalModel, tau: AuxiliaryInference, x,
                          n_samples: int, rng: RngStream) -> float:
    """Monte Carlo E_{q(z|x)} KL(tau(.|z, x) || q(psi | x)).

    Values near zero flag posterior collapse (tau stuck at the psi prior).
    """
    t = Tape(requires_grad=False)
    reps = max(1, n_samples // max(1, x.shape[0]))
    _, z = sample_joint(q, x, rng, t, rows=reps * x.shape[0])
    psis, ltau = tau.sample_and_score(z, x, 1, None, rng, t)
    diff = t.sub(ltau, q.log_psi_prior(psis, x, t))
    return float(np.mean(np.asarray(t.val(diff))))
