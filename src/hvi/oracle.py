"""Independent ground truth: exact enumeration, quadrature, closed forms.

Everything the test suite compares estimators against lives here.  The
enumeration routines compute exact expectations by summing over all sample
tuples of a finite model, in log space, entirely separately from the Monte
Carlo estimators they check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import special
from .models import (AuxiliaryInference, ExplicitPrior, Generative, HierarchicalModel,
                     UnsupportedModelError, make_discrete_hvm, make_discrete_tau)
from .rng import RngStream
from .tape import Tape

TUPLE_BUDGET = 10 ** 6


@dataclass(frozen=True)
class FiniteSupport:
    points: tuple
    probs: tuple

    def __post_init__(self):
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        if len(set(self.points)) != len(self.points):
            raise ValueError("support points must be distinct")


def _tuples(size: int, repeat: int) -> np.ndarray:
    if repeat == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.array(list(itertools.product(range(size), repeat=repeat)), dtype=np.int64)


def _logmeanexp(a, axis=None):
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.mean(np.exp(a - m), axis=axis))
    return np.squeeze(m, axis=axis) + out if axis is not None else float(m.reshape(()) + out)


def _tau_log_table(model: HierarchicalModel, tau: AuxiliaryInference, t: Tape | None):
    """log tau(psi=i | z=j) as an (z_size, psi_size) tape node."""
    info = model.finite
    zz, pp = np.meshgrid(np.arange(info.z_size), np.arange(info.psi_size), indexing="ij")
    x = np.zeros((info.z_size * info.psi_size, 0))
    if t is None:
        t = Tape(requires_grad=False)
    flat = tau.log_prob(pp.reshape(-1), zz.reshape(-1), x, t)
    return t.reshape(flat, (info.z_size, info.psi_size)), t


def exact_expected_bound(model: HierarchicalModel, tau: AuxiliaryInference, z: int, K: int,
                         kind="U", t: Tape | None = None):
    """Exact E[bound] over all sample tuples of a finite model.

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
    if isinstance(kind, tuple) and kind[0] == "J":
        J = kind[1]
        if J > K:
            raise ValueError("jackknife order J must satisfy J <= K")
        from .bounds import sharot_coeff
        if t is None:
            t = Tape(requires_grad=False)
        total = None
        for j in range(J + 1):
            term = t.mul(sharot_coeff(K, J, j),
                         exact_expected_bound(model, tau, z, K - j, "U", t=t))
            total = term if total is None else t.add(total, term)
        return total if caller_tape is not None else float(t.val(total))

    s = info.psi_size
    n_draws = K + 1 if kind == "U" else K
    if kind == "L" and K < 1:
        raise ValueError("lower bound requires K >= 1")
    if s ** max(n_draws, 1) > TUPLE_BUDGET:
        raise ValueError(f"enumeration budget exceeded: needs {s ** n_draws} tuples")

    if t is None:
        t = Tape(requires_grad=False)
    z = int(z)
    x1 = np.zeros((s, 0))
    # Per-support-point tables, tape-recorded so gradients flow where needed.
    lj = t.add(model.log_psi_prior(np.arange(s), x1, t),
               model.log_z_given_psi(np.full(s, z), np.arange(s), x1, t))   # log q(z, psi=i)
    lt_tab, _ = _tau_log_table(model, tau, t)
    lt = t.reshape(lt_tab, (info.z_size * s,))
    pick = np.zeros((s, info.z_size * s))
    pick[np.arange(s), z * s + np.arange(s)] = 1.0
    lt = t.matvec(pick, lt)                                                  # log tau(psi=i | z)
    lw = t.sub(lj, lt)                                                       # per-point log weight
    log_post = np.log(info.posterior_psi(z))

    tuples = np.array(list(itertools.product(range(s), repeat=n_draws)), dtype=np.int64)
    onehot_cols = [np.eye(s)[tuples[:, k]] for k in range(n_draws)]
    lw_cols = [t.matvec(np.asarray(oh), lw) for oh in onehot_cols]
    lw_mat = t.concat([t.reshape(c, (len(tuples), 1)) for c in lw_cols], axis=1)
    value = t.sub(t.logsumexp(lw_mat, axis=1), float(np.log(n_draws)))

    if kind == "U":
        # psi_0 comes from the exact posterior; the rest from tau.
        logp = t.matvec(np.asarray(onehot_cols[0]), t.const(log_post))
        for k in range(1, n_draws):
            logp = t.add(logp, t.matvec(np.asarray(onehot_cols[k]), lt))
    else:
        logp = None
        for k in range(n_draws):
            term = t.matvec(np.asarray(onehot_cols[k]), lt)
            logp = term if logp is None else t.add(logp, term)
    out = t.sum(t.mul(t.exp(logp), value))
    return out if caller_tape is not None else float(t.val(out))


def exact_log_marginal_finite(model: HierarchicalModel, z: int) -> float:
    return float(model.exact_log_marginal(np.array([z]))[0])


# ---------------------------------------------------------------------------
# Exact expectations of the ELBO estimators (discrete everything)
# ---------------------------------------------------------------------------

def _prior_tables(gen: Generative, rho, L: int):
    """Per-z arrays of (log prob of zeta block, prior log-ratio term)."""
    prior = gen.prior
    if isinstance(prior, ExplicitPrior):
        return None
    info = prior.model.finite
    if info is None:
        raise UnsupportedModelError("enumeration needs a finite hierarchical prior")
    t = Tape(requires_grad=False)
    sz = info.psi_size
    out = []
    rho_tab, _ = _tau_log_table(prior.model, rho, None)
    rho_tab = np.asarray(t.val(rho_tab))
    for zc in range(info.z_size):
        lj = np.log(np.maximum([info.joint(i, zc) for i in range(sz)], 1e-300))
        lr = rho_tab[zc]
        tuples = _tuples(sz, L)
        logp = lr[tuples].sum(axis=1)
        vals = _logmeanexp((lj - lr)[tuples], axis=1)
        out.append((logp, vals))
    return out


def exact_expected_elbo(gen: Generative, q: HierarchicalModel, tau: AuxiliaryInference,
                        rho, M: int, K: int, L: int, x=None) -> float:
    """Exact E[multi-sample hierarchical ELBO] on a discrete-everything instance."""
    info = q.finite
    if info is None:
        raise UnsupportedModelError("enumeration requires a finite inference model")
    t = Tape(requires_grad=False)
    s, tz = info.psi_size, info.z_size
    x0 = np.zeros((1, 0)) if x is None else np.asarray(x).reshape(1, -1)

    lt_tab, _ = _tau_log_table(q, tau, None)
    lt_tab = np.asarray(Tape(requires_grad=False).val(lt_tab))
    lik = np.array([np.asarray(t.val(gen.log_lik(x0, np.array([zc]), t))).reshape(-1)[0]
                    for zc in range(tz)])
    prior_blocks = _prior_tables(gen, rho, L)
    if prior_blocks is None:
        pt = Tape(requires_grad=False)
        prior_vals = np.array([np.asarray(pt.val(gen.prior.log_prob(np.array([zc]), pt))).reshape(-1)[0]
                               for zc in range(tz)])

    # Enumerate single-replica outcomes: (psi0, z, psi_{1:K} tuple, zeta block).
    block_logp, block_val = [], []
    psi_tuples = _tuples(s, K)
    for psi0 in range(s):
        for zc in range(tz):
            base_lp = np.log(max(info.joint(psi0, zc), 1e-300))
            lw0 = np.log(max(info.joint(psi0, zc), 1e-300)) - lt_tab[zc, psi0]
            lt_z = lt_tab[zc]
            lj_z = np.log(np.maximum([info.joint(i, zc) for i in range(s)], 1e-300))
            for pt_idx in range(len(psi_tuples)):
                ks = psi_tuples[pt_idx]
                lp = base_lp + lt_z[ks].sum()
                den = _logmeanexp(np.concatenate([[lw0], (lj_z - lt_z)[ks]]))
                if prior_blocks is None:
                    block_logp.append(lp)
                    block_val.append(lik[zc] + prior_vals[zc] - den)
                else:
                    zlogp, zvals = prior_blocks[zc]
                    for lpz, vz in zip(zlogp, zvals):
                        block_logp.append(lp + lpz)
                        block_val.append(lik[zc] + vz - den)
    block_logp = np.asarray(block_logp)
    block_val = np.asarray(block_val)

    if len(block_logp) ** M > TUPLE_BUDGET:
        raise ValueError(f"enumeration budget exceeded: needs {len(block_logp) ** M} tuples")
    idx = np.array(list(itertools.product(range(len(block_logp)), repeat=M)), dtype=np.int64)
    logp = block_logp[idx].sum(axis=1)
    vals = _logmeanexp(block_val[idx], axis=1)
    return float(np.sum(np.exp(logp) * vals))


# ---------------------------------------------------------------------------
# Exact expectations of the KL bounds, and the true discrete KL
# ---------------------------------------------------------------------------

def _finite_pair_tables(q: HierarchicalModel, p: HierarchicalModel, tau, rho):
    iq, ip = q.finite, p.finite
    if iq is None or ip is None or iq.z_size != ip.z_size:
        raise UnsupportedModelError("KL enumeration requires finite q and p over the same z support")
    lt = np.asarray(Tape(requires_grad=False).val(_tau_log_table(q, tau, None)[0]))
    lr = np.asarray(Tape(requires_grad=False).val(_tau_log_table(p, rho, None)[0]))
    return iq, ip, lt, lr


def true_kl_finite(q: HierarchicalModel, p: HierarchicalModel) -> float:
    iq, ip = q.finite, p.finite
    qm = np.array([iq.marginal(z) for z in range(iq.z_size)])
    pm = np.array([ip.marginal(z) for z in range(ip.z_size)])
    mask = qm > 0
    return float(np.sum(qm[mask] * (np.log(qm[mask]) - np.log(pm[mask]))))


def exact_expected_kl_upper(q, p, tau, rho, K: int, L: int) -> float:
    iq, ip, lt, lr = _finite_pair_tables(q, p, tau, rho)
    s, sz, tz = iq.psi_size, ip.psi_size, iq.z_size
    total = 0.0
    psi_tuples = _tuples(s, K)
    zeta_tuples = _tuples(sz, L)
    for zc in range(tz):
        ljq = np.log(np.maximum([iq.joint(i, zc) for i in range(s)], 1e-300))
        ljp = np.log(np.maximum([ip.joint(i, zc) for i in range(sz)], 1e-300))
        for psi0 in range(s):
            base_p = iq.joint(psi0, zc)
            if base_p == 0.0:
                continue
            lw0 = ljq[psi0] - lt[zc, psi0]
            for ks in psi_tuples:
                pk = np.exp(lt[zc][ks].sum())
                num = _logmeanexp(np.concatenate([[lw0], (ljq - lt[zc])[ks]]))
                for ls in zeta_tuples:
                    pl = np.exp(lr[zc][ls].sum())
                    den = _logmeanexp((ljp - lr[zc])[ls])
                    total += base_p * pk * pl * (num - den)
    return total


def exact_expected_kl_lower(q, p, tau, rho, K: int, L: int) -> float:
    if K < 1:
        raise ValueError("KL lower bound requires K >= 1")
    iq, ip, lt, lr = _finite_pair_tables(q, p, tau, rho)
    s, sz, tz = iq.psi_size, ip.psi_size, iq.z_size
    total = 0.0
    psi_tuples = _tuples(s, K)
    zeta_tuples = _tuples(sz, L)
    for zc in range(tz):
        qz = iq.marginal(zc)
        if qz == 0.0:
            continue
        ljq = np.log(np.maximum([iq.joint(i, zc) for i in range(s)], 1e-300))
        ljp = np.log(np.maximum([ip.joint(i, zc) for i in range(sz)], 1e-300))
        post_p = ip.posterior_psi(zc)
        for ks in psi_tuples:
            pk = np.exp(lt[zc][ks].sum())
            num = _logmeanexp((ljq - lt[zc])[ks])
            for z0 in range(sz):
                if post_p[z0] == 0.0:
                    continue
                lw0 = ljp[z0] - lr[zc, z0]
                for ls in zeta_tuples:
                    pl = np.exp(lr[zc][ls].sum())
                    den = _logmeanexp(np.concatenate([[lw0], (ljp - lr[zc])[ls]]))
                    total += qz * post_p[z0] * pk * pl * (num - den)
    return total


# ---------------------------------------------------------------------------
# Resampling-distribution (omega) enumeration
# ---------------------------------------------------------------------------

def omega_closed_form(model: HierarchicalModel, tau: AuxiliaryInference, z: int,
                      psis: tuple) -> float:
    """Closed-form marginal of the weighted-resampling process at one tuple."""
    info = model.finite
    lt = np.asarray(Tape(requires_grad=False).val(_tau_log_table(model, tau, None)[0]))[z]
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
    lt = np.asarray(Tape(requires_grad=False).val(_tau_log_table(model, tau, None)[0]))[z]
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
