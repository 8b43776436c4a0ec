"""Independent ground truth: exact enumeration, quadrature, closed forms.

Everything the test suite compares estimators against lives here.  The
enumeration routines compute exact expectations on a finite model, in log
space, entirely separately from the Monte Carlo estimators they check.  Every
bound is symmetric in its i.i.d. draws, so they sum over the count vectors
of the draws with multinomial weights, which keeps K = 64 within
``COUNT_BUDGET``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import special
from .models import (AuxiliaryInference, ExplicitPrior, Generative, HierarchicalModel,
                     UnsupportedModelError, log_joint, make_discrete_hvm, make_discrete_tau)
from .rng import RngStream
from .tape import Tape

COUNT_BUDGET = 10 ** 6


def _count_vectors(n: int, s: int):
    """Every count vector of n i.i.d. draws over s outcomes, as the rows of
    an (m, s) int array, m = C(n + s - 1, n), with its log multinomial
    coefficient log(n! / prod_i c_i!)."""
    m = math.comb(n + s - 1, n)
    if m > COUNT_BUDGET:
        raise ValueError(f"enumeration budget exceeded: needs {m} count vectors")
    draws = np.array(list(itertools.combinations_with_replacement(range(s), n)),
                     dtype=np.int64).reshape(m, n)
    counts = np.bincount((draws + s * np.arange(m)[:, None]).reshape(-1),
                         minlength=m * s).reshape(m, s)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, n + 1)))])
    return counts, log_fact[n] - log_fact[counts].sum(axis=1)


def _count_draws(t: Tape, log_p, log_w, n: int, first=None):
    """(log P, value) of every count vector of n i.i.d. draws.

    Outcome i is drawn with log probability ``log_p[i]`` (finite) and has log
    weight ``log_w[i]``; a vector's value is the log mean weight of its draws.
    ``first``, probabilities over the same outcomes, adds one slot drawn apart
    from the n and averaged with them (psi_0 of the upper bounds).
    """
    counts, log_coef = _count_vectors(n, np.shape(t.val(log_p))[0])
    log_prob = t.add(t.matvec(counts.astype(np.float64), log_p), log_coef)
    if first is not None:
        slots = np.flatnonzero(first > 0)
        counts = (counts[None] + np.eye(len(first), dtype=np.int64)[slots, None]).reshape(
            -1, len(first))
        log_prob = t.reshape(t.add(np.log(first[slots])[:, None],
                                   t.reshape(log_prob, (1, -1))), (-1,))
    with np.errstate(divide="ignore"):
        log_counts = np.log(counts)
    value = t.sub(t.logsumexp(t.add(log_counts, log_w), axis=1), float(np.log(counts[0].sum())))
    return log_prob, value


def _tau_row(model: HierarchicalModel, tau: AuxiliaryInference, z: int) -> np.ndarray:
    """log tau(psi = i | z) for every psi code i, off the tape."""
    s = model.finite.psi_size
    t = Tape(requires_grad=False)
    return np.asarray(t.val(tau.log_prob(np.arange(s), np.full(s, z), np.zeros((s, 0)), t)))


def _weights(model: HierarchicalModel, tau: AuxiliaryInference, z: int, t: Tape):
    """(codes, log tau, log q(psi, z) - log tau) over the psi codes tau can
    draw at z, recorded on ``t``.  tau must cover q(psi | z), where every
    psi_0 slot is drawn."""
    info = model.finite
    codes = np.flatnonzero(np.isfinite(_tau_row(model, tau, z)))
    if np.any(np.delete(info.psi_probs * info.z_given_psi[:, z], codes) > 0):
        raise ValueError(f"tau(psi | z={z}) does not cover q(psi | z)")
    zs, x = np.full(codes.size, z), np.zeros((codes.size, 0))
    lt = tau.log_prob(codes, zs, x, t)
    return codes, lt, t.sub(log_joint(model, zs, codes, x, t), lt)


def exact_expected_bound(model: HierarchicalModel, tau: AuxiliaryInference, z: int, K: int,
                         kind="U", t: Tape | None = None):
    """Exact E[bound] over all count vectors of the i.i.d. tau draws.

    ``kind`` is "U", "L", or ("J", J) for the order-J jackknife combination
    (whose expectation is the Sharot combination of E[U_{K-j}], since the
    subset-averaged statistics are exchangeable in the i.i.d. tau draws).
    With a gradient tape the whole expectation is recorded, so its autodiff
    gradient is the exact parameter derivative.
    """
    info = model.finite
    if info is None:
        raise UnsupportedModelError("exact_expected_bound requires a finite model")
    caller_tape = t
    if t is None:
        t = Tape(requires_grad=False)
    z = int(z)
    if isinstance(kind, tuple) and kind[0] == "J":
        J = kind[1]
        if J > K:
            raise ValueError("jackknife order J must satisfy J <= K")
        from .bounds import sharot_coeff
        out = None
        for j in range(J + 1):
            term = t.mul(sharot_coeff(K, J, j),
                         exact_expected_bound(model, tau, z, K - j, "U", t=t))
            out = term if out is None else t.add(out, term)
    else:
        if kind == "L" and K < 1:
            raise ValueError("lower bound requires K >= 1")
        codes, lt, lw = _weights(model, tau, z, t)
        first = info.posterior_psi(z)[codes] if kind == "U" else None
        log_prob, value = _count_draws(t, lt, lw, K, first)
        out = t.sum(t.mul(t.exp(log_prob), value))
    return out if caller_tape is not None else float(t.val(out))


def exact_log_marginal_finite(model: HierarchicalModel, z: int) -> float:
    return float(model.exact_log_marginal(np.array([z]))[0])


def exact_expected_elbo(gen: Generative, q: HierarchicalModel, tau: AuxiliaryInference,
                        rho, M: int, K: int, L: int, x=None) -> float:
    """Exact E[multi-sample hierarchical ELBO] on a discrete-everything instance.

    One replica's outcome is z with psi_0, the counts of psi_{1:K} and, for a
    hierarchical prior, the counts of zeta_{1:L}; the M replicas are i.i.d.
    draws over those outcomes.
    """
    info = q.finite
    if info is None:
        raise UnsupportedModelError("enumeration requires a finite inference model")
    explicit = isinstance(gen.prior, ExplicitPrior)
    if not explicit and gen.prior.model.finite is None:
        raise UnsupportedModelError("enumeration needs a finite hierarchical prior")
    t = Tape(requires_grad=False)
    x0 = np.zeros((1, 0)) if x is None else np.asarray(x).reshape(1, -1)
    log_probs, values = [], []
    for z in range(info.z_size):
        if info.marginal(z) == 0.0:
            continue
        zc = np.array([z])
        codes, lt, lw = _weights(q, tau, z, t)
        joint = (info.psi_probs * info.z_given_psi[:, z])[codes]
        lp, den = (t.val(v) for v in _count_draws(t, lt, lw, K, joint))
        if explicit:
            lpz, prior = np.zeros(1), t.val(gen.prior.log_prob(zc, t)).reshape(1)
        else:
            _, lr, lwp = _weights(gen.prior.model, rho, z, t)
            lpz, prior = (t.val(v) for v in _count_draws(t, lr, lwp, L))
        lik = t.val(gen.log_lik(x0, zc, t)).reshape(-1)[0]
        log_probs.append((lp[:, None] + lpz[None, :]).reshape(-1))
        values.append((lik - den[:, None] + prior[None, :]).reshape(-1))
    log_prob, value = _count_draws(t, np.concatenate(log_probs), np.concatenate(values), M)
    return float(np.sum(np.exp(t.val(log_prob)) * t.val(value)))


# ---------------------------------------------------------------------------
# Exact expectations of the KL bounds, and the true discrete KL
# ---------------------------------------------------------------------------

def true_kl_finite(q: HierarchicalModel, p: HierarchicalModel) -> float:
    iq, ip = q.finite, p.finite
    qm = np.array([iq.marginal(z) for z in range(iq.z_size)])
    pm = np.array([ip.marginal(z) for z in range(ip.z_size)])
    mask = qm > 0
    return float(np.sum(qm[mask] * (np.log(qm[mask]) - np.log(pm[mask]))))


def _expected_kl(q, p, tau, rho, num: tuple, den: tuple) -> float:
    """E_q(z)[E num - E den]: given z, num's K draws (tau on q) and den's L
    draws (rho on p) are independent, so the difference splits."""
    iq, ip = q.finite, p.finite
    if iq is None or ip is None or iq.z_size != ip.z_size:
        raise UnsupportedModelError("KL enumeration requires finite q and p over the same z support")
    return sum(iq.marginal(z) * (exact_expected_bound(q, tau, z, *num)
                                 - exact_expected_bound(p, rho, z, *den))
               for z in range(iq.z_size) if iq.marginal(z) > 0.0)


def exact_expected_kl_upper(q, p, tau, rho, K: int, L: int) -> float:
    return _expected_kl(q, p, tau, rho, (K, "U"), (L, "L"))


def exact_expected_kl_lower(q, p, tau, rho, K: int, L: int) -> float:
    return _expected_kl(q, p, tau, rho, (K, "L"), (L, "U"))


# ---------------------------------------------------------------------------
# Resampling-distribution (omega) enumeration
# ---------------------------------------------------------------------------

def omega_closed_form(model: HierarchicalModel, tau: AuxiliaryInference, z: int,
                      psis: tuple) -> float:
    """Closed-form marginal of the weighted-resampling process at one tuple."""
    info = model.finite
    lt = _tau_row(model, tau, z)
    post = info.posterior_psi(z)
    ratios = [post[i] / np.exp(lt[i]) for i in psis]
    num = post[psis[0]] * np.exp(sum(lt[i] for i in psis[1:]))
    return num / (np.mean(ratios))


def enumerate_omega_marginal(model: HierarchicalModel, tau: AuxiliaryInference, z: int,
                             K: int) -> dict:
    """Exact output distribution of the resample-and-reorder process.

    Process: draw K+1 i.i.d. from tau, weight by q(psi, z)/tau(psi | z), draw
    an index from the normalized weights, move it to the front.
    """
    info = model.finite
    s = info.psi_size
    lt = _tau_row(model, tau, z)
    w = np.array([info.joint(i, z) for i in range(s)]) / np.exp(lt)
    out: dict[tuple, float] = {}
    for hat in itertools.product(range(s), repeat=K + 1):
        p_tuple = np.exp(sum(lt[i] for i in hat))
        ws = np.array([w[i] for i in hat])
        norm = ws.sum()
        for h in range(K + 1):
            ordered = (hat[h],) + tuple(hat[i] for i in range(K + 1) if i != h)
            out[ordered] = out.get(ordered, 0.0) + p_tuple * ws[h] / norm
    return out


# ---------------------------------------------------------------------------
# Quadrature on (0, inf): exp-sinh (double exponential) trapezoid
# ---------------------------------------------------------------------------

class QuadratureError(RuntimeError):
    def __init__(self, achieved):
        self.achieved = achieved
        super().__init__(f"quadrature did not reach tolerance; achieved {achieved:.3e}")


def log_integral_positive(logf, tol: float = 1e-9, max_level: int = 14) -> float:
    """log of integral_0^inf exp(logf(psi)) dpsi.

    Uses the substitution psi = exp((pi/2) sinh t) and trapezoid refinement;
    the transformed integrand decays double-exponentially, so halving h
    roughly doubles the correct digits.  Raises QuadratureError with the
    achieved tolerance when refinement stalls.
    """
    probe = np.exp(np.linspace(-60.0, 60.0, 241) * 0.25)
    with np.errstate(all="ignore"):
        c = float(np.max(logf(probe)))
    if not np.isfinite(c):
        c = 0.0

    tmax = 4.2

    def eval_t(ts):
        psi = np.exp(0.5 * np.pi * np.sinh(ts))
        dpsi = psi * 0.5 * np.pi * np.cosh(ts)
        with np.errstate(all="ignore"):
            vals = np.exp(np.asarray(logf(psi), dtype=np.float64) - c) * dpsi
        return np.where(np.isfinite(vals), vals, 0.0)

    h = 0.5
    ts = np.arange(-tmax, tmax + h / 2, h)
    total = h * float(np.sum(eval_t(ts)))
    err = np.inf
    streak = 0
    for level in range(max_level):
        mid = np.arange(-tmax + h / 2, tmax, h)
        total_half = total / 2.0 + (h / 2.0) * float(np.sum(eval_t(mid)))
        err = abs(total_half - total)
        total = total_half
        h /= 2.0
        # Narrow peaks can fool a single coarse agreement; insist on two
        # consecutive converged halvings past a minimum depth.
        streak = streak + 1 if err <= tol * max(1.0, abs(total)) else 0
        if streak >= 2 and level >= 5 and total > 0:
            return c + float(np.log(total))
    raise QuadratureError(err)


def quadrature_log_marginal(log_joint, z: float, tol: float = 1e-9) -> float:
    """log integral exp(log_joint(z, psi)) dpsi over psi in (0, inf)."""
    return log_integral_positive(lambda psi: log_joint(z, psi), tol=tol)


# ---------------------------------------------------------------------------
# Finite differences and Gaussian closed forms
# ---------------------------------------------------------------------------

def finite_diff(f, x, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, per coordinate."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    flat = out.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        xp = xf.copy(); xp[i] += step
        xm = xf.copy(); xm[i] -= step
        flat[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * step)
    return out


def gamma_ppf_unit(a, u):
    """Quantile of Gamma(a, rate=1): solves P(a, x) = u by safeguarded Newton."""
    a, u = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(u, dtype=np.float64))
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("gamma_ppf_unit requires u in (0, 1)")
    x = np.array(a, dtype=np.float64, copy=True)
    lo = np.zeros_like(x)
    hi = np.full_like(x, np.inf)
    for _ in range(200):
        f = special.gammainc_p(a, x) - u
        lo = np.where(f < 0, np.maximum(lo, x), lo)
        hi = np.where(f > 0, np.minimum(hi, x), hi)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # Newton step f / pdf(x), the unit-rate density written out.
            step = f * np.exp(x - (a - 1.0) * np.log(x) + special.lgamma(a))
        xn = x - step
        bad = ~np.isfinite(xn) | (xn <= lo) | (xn >= hi)
        mid = np.where(np.isfinite(hi), 0.5 * (lo + hi), x * 2.0)
        xn = np.where(bad, mid, xn)
        if np.all(np.abs(xn - x) <= 1e-13 * np.maximum(np.abs(x), 1e-300)):
            return xn
        x = xn
    return x


def gaussian_kl_diag(m0, s0, m1, s1) -> float:
    """KL(N(m0, diag s0^2) || N(m1, diag s1^2)), scalars broadcast."""
    m0, s0, m1, s1 = map(lambda a: np.asarray(a, dtype=np.float64), (m0, s0, m1, s1))
    per = np.log(s1 / s0) + (s0 ** 2 + (m0 - m1) ** 2) / (2.0 * s1 ** 2) - 0.5
    return float(np.sum(per))


def snr_posterior_params(x, theta):
    """Conjugate posterior of the 10-d pair N(x|z, I) N(z|theta, I)."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (x + theta), 0.5


def snr_marginal_logpdf(x, theta) -> float:
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    return float(-0.5 * d * np.log(2 * np.pi * 2.0) - np.sum((x - theta) ** 2) / 4.0)


def snr_u0_given_x(A, b, theta, tau_var: float, x: np.ndarray, t: Tape):
    """Per-x E[U_0 | x] of the conjugate pair, inner z expectation in closed form.

    E[log q(x, z0) | x] is parameter-free; only -E[log tau(z0 | x)] carries
    A and b, through the posterior-mean residual and the fixed posterior
    variance 1/2.  Recorded on the tape, its gradient is the Rao
    Blackwellized Monte Carlo gradient (identically zero at the optimum).
    """
    theta = np.asarray(theta, dtype=np.float64)
    d = theta.shape[0]
    mean_post = 0.5 * (x + theta)                      # (rows, d)
    Anode = A if not isinstance(A, np.ndarray) else t.const(A)
    bnode = b if not isinstance(b, np.ndarray) else t.const(b)
    resid = t.sub(t.const(mean_post), t.add(t.matmul(t.const(x), Anode), t.reshape(bnode, (1, d))))
    quad = t.sum(t.add(t.square(resid), 0.5), axis=1)
    # E[log q(x, z0) | x]: Gaussian cross terms, no parameter dependence.
    elog_joint = (-d * np.log(2 * np.pi) - 0.25 * np.sum((x - theta) ** 2, axis=1)
                  - 0.5 * d)
    const = 0.5 * d * np.log(2 * np.pi * tau_var)
    return t.add(t.add(t.const(elog_joint), const), t.div(quad, 2.0 * tau_var))


def snr_exact_expected_u0(A, b, theta, tau_var: float, t: Tape | None = None):
    """Closed-form E[U_0] of the conjugate pair under tau = N(Az + b, tau_var I).

    Recorded on a tape when one is given, so its autodiff gradient is the
    exact derivative (zero at A = I/2, b = theta/2).
    """
    if t is None:
        t = Tape(requires_grad=False)
    theta = np.asarray(theta, dtype=np.float64)
    d = theta.shape[0]
    eye = np.eye(d)
    Anode = A if not isinstance(A, np.ndarray) else t.const(A)
    bnode = b if not isinstance(b, np.ndarray) else t.const(b)
    ima = t.sub(t.const(eye), Anode)
    mu = t.sub(t.matvec(ima, t.const(theta)), bnode)
    quad = t.add(t.sum(t.square(ima)), t.add(t.sum(t.square(Anode)), t.sum(t.square(mu))))
    const = -d * (np.log(2 * np.pi) + 1.0) + 0.5 * d * np.log(2 * np.pi * tau_var)
    return t.add(const, t.div(quad, 2.0 * tau_var))


# ---------------------------------------------------------------------------
# Random finite instances for property tests
# ---------------------------------------------------------------------------

def _dirichlet_floor(rng: RngStream, n: int, floor: float = 0.01) -> np.ndarray:
    draw = rng.exponential(1.0, (n,))
    p = draw / draw.sum()
    p = np.maximum(p, floor)
    return p / p.sum()


def random_finite_model(rng: RngStream, psi_size: int | None = None,
                        z_size: int | None = None) -> HierarchicalModel:
    """Random finite model: support sizes 2-4, floored Dirichlet(1) tables."""
    s = psi_size or 2 + int(rng.uniform() * 3)
    tz = z_size or 2 + int(rng.uniform() * 3)
    psi_probs = _dirichlet_floor(rng, s)
    rows = np.stack([_dirichlet_floor(rng, tz) for _ in range(s)])
    return make_discrete_hvm(psi_probs, rows)


def random_discrete_tau(rng: RngStream, model: HierarchicalModel) -> AuxiliaryInference:
    info = model.finite
    table = np.stack([_dirichlet_floor(rng, info.psi_size) for _ in range(info.z_size)])
    return make_discrete_tau(model, probs=table)
