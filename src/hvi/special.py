"""Special functions on float64 numpy arrays.

Everything here is vectorized and, except the axis reductions ``logsumexp``
and ``softmax``, elementwise; scalars go in, 0-d arrays come out.  Accuracy
targets ~1e-12 relative, which is what the Gamma densities and the implicit
reparameterization gradients need.

The incomplete gamma function has one kernel, ``gammainc_sums``: the series
and continued fraction without their x^a e^-x / Gamma(a) prefactor, each with
its exact derivative in a.  ``gammainc_p`` uses the value part;
``dists.gamma_implicit_grad`` uses both, and the prefactor cancels there.
"""

from __future__ import annotations

import numpy as np

# Lanczos approximation, g=7 with 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEFS = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def _as_f64(x):
    return np.asarray(x, dtype=np.float64)


def lgamma(x):
    """log Gamma(x) for x > 0."""
    x = _as_f64(x)
    if np.any(x <= 0.0):
        raise ValueError(f"lgamma requires positive argument, got {np.min(x)}")
    # Reflection for x < 0.5 keeps full accuracy near zero.
    small = x < 0.5
    xs = np.where(small, 1.0 - x, x)
    z = xs - 1.0
    s = np.full_like(z, _LANCZOS_COEFS[0])
    for i in range(1, len(_LANCZOS_COEFS)):
        s = s + _LANCZOS_COEFS[i] / (z + i)
    base = z + _LANCZOS_G + 0.5
    out = _HALF_LOG_2PI + (z + 0.5) * np.log(base) - base + np.log(s)
    if np.any(small):
        with np.errstate(divide="ignore"):
            refl = np.log(np.pi) - np.log(np.abs(np.sin(np.pi * x))) - out
        out = np.where(small, refl, out)
    return out


def digamma(x):
    """d/dx log Gamma(x) for x > 0 (recurrence shift below 10, then asymptotic)."""
    x = _as_f64(x)
    if np.any(x <= 0.0):
        raise ValueError(f"digamma requires positive argument, got {np.min(x)}")
    shift = np.zeros_like(x)
    xs = np.array(x, copy=True)
    for _ in range(10):
        mask = xs < 10.0
        if not np.any(mask):
            break
        shift = shift - np.where(mask, 1.0 / xs, 0.0)
        xs = np.where(mask, xs + 1.0, xs)
    inv = 1.0 / xs
    inv2 = inv * inv
    # Bernoulli-series tail, good to ~1e-15 for xs >= 10.
    tail = inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (
        1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * 691.0 / 32760.0)))))
    return np.log(xs) - 0.5 * inv - tail + shift


def softplus(x):
    """log(1 + exp(x)), overflow-safe: max(x, 0) + log1p(exp(-|x|))."""
    x = _as_f64(x)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x):
    x = _as_f64(x)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def inv_softplus(y):
    """Inverse of softplus for y > 0."""
    y = _as_f64(y)
    return y + np.log(-np.expm1(-y))


def _finite_max(a, axis):
    # Shift by the max, or by 0 where the max is infinite (all -inf, or +inf).
    m = np.max(a, axis=axis, keepdims=True)
    return np.where(np.isfinite(m), m, 0.0)


def logsumexp(a, axis=None):
    """log(sum(exp(a))) along ``axis`` (all axes when None), max-shifted."""
    m = _finite_max(a, axis)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def softmax(a, axis=None):
    """exp(a) normalized along ``axis``; the gradient of ``logsumexp``."""
    e = np.exp(a - _finite_max(a, axis))
    return e / np.sum(e, axis=axis, keepdims=True)


# Near x = a the series terms fall like exp(-n^2 / 2a), so the series needs
# about 8 sqrt(a) steps to reach 1e-16 (2588 at a = 1e5); the continued
# fraction needs fewer.  The iteration cap therefore grows with sqrt(a).
_MAX_ITER = 800
_MAX_ITER_PER_SQRT_A = 13.0
_EPS = 1e-16
_CHECK_EVERY = 4


def gammainc_p(a, x):
    """Regularized lower incomplete gamma P(a, x), a > 0, x >= 0.

    The value part of ``gammainc_sums`` times the prefactor x^a e^-x / Gamma(a).
    """
    a, x = np.broadcast_arrays(_as_f64(a), _as_f64(x))
    if not np.all(a > 0.0):
        raise ValueError(f"gammainc_p requires a > 0, got {np.min(a)}")
    if not np.all(x >= 0.0):
        raise ValueError(f"gammainc_p requires x >= 0, got {np.min(x)}")
    out = np.zeros(x.shape)
    pos = x > 0.0
    if np.any(pos):
        ap, xp = a[pos], x[pos]
        s, _, upper = gammainc_sums(ap, xp)
        part = s * np.exp(ap * np.log(xp) - xp - lgamma(ap))
        out[pos] = np.where(upper, 1.0 - part, part)
    return out


def gammainc_sums(a, x):
    """Incomplete-gamma sums without their prefactor, and their a-derivatives.

    With g(a, x) = x^a e^-x / Gamma(a), returns ``(s, ds, upper)``:

    * where x < a + 1, ``s`` is the series S = sum_n x^n / (a (a+1) ... (a+n)),
      so P(a, x) = g * S;
    * elsewhere (``upper``) it is the continued fraction
      H = 1 / (b_0 + a_1 / (b_1 + a_2 / (b_2 + ...))), b_i = x + 1 - a + 2i,
      a_i = -i (i - a), summed by Steed's algorithm, so Q(a, x) = 1 - P = g * H;
    * ``ds`` is d(s)/da, carried by forward-mode differentiation through the
      same iteration, so the value and its derivative cost one pass.

    Both run until the next increment of the value and of the derivative is
    below 1e-16 relative, for at most 800 + 13 sqrt(a) steps.  Requires finite
    a > 0 and x > 0.
    """
    a, x = np.broadcast_arrays(_as_f64(a), _as_f64(x))
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(x))):
        raise ValueError("gammainc_sums requires finite a and x")
    if not (np.all(a > 0.0) and np.all(x > 0.0)):
        raise ValueError("gammainc_sums requires a > 0 and x > 0")
    shape = a.shape
    a, x = a.ravel(), x.ravel()
    s = np.empty(a.shape)
    ds = np.empty(a.shape)
    upper = x >= a + 1.0
    for sel, start, step, done in (
            (np.flatnonzero(~upper), _series_start, _series_step, _series_done),
            (np.flatnonzero(upper), _cf_start, _cf_step, _cf_done)):
        if sel.size:
            cap = _MAX_ITER + int(_MAX_ITER_PER_SQRT_A * np.sqrt(np.max(a[sel])))
            s[sel], ds[sel] = _iterate(start(a[sel], x[sel]), step, done, cap)
    return s.reshape(shape), ds.reshape(shape), upper.reshape(shape)


def _iterate(state, step, done, max_iter):
    """Apply ``state = step(i, state)`` for i = 1, 2, ... until ``done(state)``
    holds everywhere; raise if that takes ``max_iter`` steps.

    ``state`` is a tuple of equal-length arrays whose first two are the value
    and its derivative.  Convergence is tested every ``_CHECK_EVERY`` steps;
    once three quarters of the working set has converged, those elements are
    written out and dropped, so the slow ones finish on a small array.  An
    element may run a few steps past its own convergence; that moves it by
    less than 1e-16 relative, as both sums' increments keep shrinking.
    """
    n = state[0].size
    val = np.empty(n)
    dval = np.empty(n)
    idx = np.arange(n)
    for i in range(1, max_iter):
        state = step(i, state)
        if i % _CHECK_EVERY:
            continue
        ok = done(state)
        n_ok = np.count_nonzero(ok)
        if n_ok == idx.size:
            val[idx], dval[idx] = state[0], state[1]
            return val, dval
        if 4 * n_ok >= 3 * idx.size:
            out = np.flatnonzero(ok)
            val[idx[out]], dval[idx[out]] = state[0][out], state[1][out]
            keep = np.flatnonzero(~ok)
            idx = idx[keep]
            state = tuple(v[keep] for v in state)
    raise RuntimeError("incomplete gamma iteration did not converge")


def _series_start(a, x):
    # S = sum_n t_n, t_0 = 1/a, t_n = t_{n-1} x / (a + n).
    term = 1.0 / a
    dterm = -term * term
    return term, dterm, a, x, term, dterm


def _series_step(i, state):
    s, ds, a, x, term, dterm = state
    ap = a + i
    term = term * x / ap
    dterm = (dterm * x - term) / ap      # product rule on t_{n-1} * x / (a + n)
    return s + term, ds + dterm, a, x, term, dterm


def _series_done(state):
    # Every t_n > 0 and dt_n = -t_n sum_{k<=n} 1/(a+k) < 0, so |dt_n| <= eps |dS|
    # implies t_n <= eps S: one test covers the value and the derivative.
    return state[5] >= _EPS * state[1]


def _cf_start(a, x):
    # Steed: D_0 = 1/b_0, increment dl_0 = H_0 = D_0; db_i/da = -1.
    b = x + 1.0 - a
    d = 1.0 / b
    dd = d * d
    return d, dd, a, b, d, dd, d, dd


def _cf_step(i, state):
    # D_i = 1 / (b_i + a_i D_{i-1}), dl_i = (b_i D_i - 1) dl_{i-1}, H_i = H_{i-1} + dl_i.
    # On x >= a + 1 the denominator stays above b_i / 2 (checked for a in
    # [1e-3, 1e4], x up to 1e3 (a + 1)), so it needs no zero guard.
    h, dh, a, b, d, dd, dl, ddl = state
    an = i * (a - i)                     # a_i, with da_i/da = i
    b = b + 2.0
    ddn = 1.0 - i * d - an * dd          # -d/da of b_i + a_i D_{i-1}
    d = 1.0 / (b + an * d)
    dd = ddn * d * d
    m = b * d - 1.0
    ddl = (b * dd - d) * dl + m * ddl
    dl = m * dl
    return h + dl, dh + ddl, a, b, d, dd, dl, ddl


def _cf_done(state):
    # H > 0 and dH/da > 0 on this branch.
    h, dh, dl, ddl = state[0], state[1], state[6], state[7]
    return (np.abs(dl) <= _EPS * h) & (np.abs(ddl) <= _EPS * dh)
