"""Special functions on float64 numpy arrays.

Everything here is vectorized and, except the axis reductions ``logsumexp``
and ``softmax``, elementwise; scalars go in, 0-d arrays come out.  Accuracy
targets ~1e-12 relative, which is what the Gamma densities and the implicit
reparameterization gradients need.

The incomplete gamma function has one kernel, ``gammainc_sums``: the series
and continued fraction without their x^a e^-x / Gamma(a) prefactor, each with
its exact derivative in a.  ``gammainc_p`` uses the value part;
``dists.gamma_implicit_grad`` uses both, and the prefactor cancels there.

The kernels below work in buffers they own, with the same arithmetic, in the
same order, as the textbook expressions, so results keep their bits:

* ``softplus``     -- the output (``out``, which may be x itself) plus one
                      scratch array, max(x, 0)
* ``sigmoid``      -- the output plus one scratch array, 1 + t
* ``digamma``      -- five arrays of x's size (its copy, the shift, 1/x,
                      1/x^2 and the series tail); masked in-place ufuncs move
                      the elements still below 10, and the result lands in
                      the copy
* ``gammainc_sums`` -- per branch, one state of working-set-sized arrays,
                      stepped in place: the series carries one scratch array
                      (a + n), the continued fraction three; convergence tests
                      reuse them.  Only the three-quarter drop copies, to the
                      smaller working set.
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
    inv = np.empty_like(x)
    for _ in range(10):
        mask = xs < 10.0
        if not np.any(mask):
            break
        np.divide(1.0, xs, out=inv, where=mask)
        np.subtract(shift, inv, out=shift, where=mask)
        np.add(xs, 1.0, out=xs, where=mask)
    np.divide(1.0, xs, out=inv)
    inv2 = np.multiply(inv, inv, out=np.empty_like(inv))
    # Bernoulli-series tail, good to ~1e-15 for xs >= 10:
    # inv2 (1/12 - inv2 (1/120 - inv2 (1/252 - inv2 (1/240 - inv2 (1/132 - inv2 691/32760))))).
    tail = np.multiply(inv2, 691.0, out=np.empty_like(inv))
    np.divide(tail, 32760.0, out=tail)
    for c in (1.0 / 132.0, 1.0 / 240.0, 1.0 / 252.0, 1.0 / 120.0, 1.0 / 12.0):
        np.subtract(c, tail, out=tail)
        np.multiply(inv2, tail, out=tail)
    out = np.log(xs, out=xs)
    np.multiply(inv, 0.5, out=inv)
    np.subtract(out, inv, out=out)
    np.subtract(out, tail, out=out)
    return np.add(out, shift, out=out)


def softplus(x, out=None):
    """log(1 + exp(x)), overflow-safe: max(x, 0) + log1p(exp(-|x|)).

    The log1p term is formed in the output buffer, which may be ``x`` itself;
    max(x, 0) is the one scratch array (a masked add of x measured slower
    than that pass).
    """
    x = _as_f64(x)
    top = np.maximum(x, 0.0)
    out = np.abs(x, out=np.empty_like(x) if out is None else out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.add(top, out, out=out)


def sigmoid(x):
    """1 / (1 + t) for x >= 0 and t / (1 + t) below, with t = exp(-|x|).

    The numerator is formed in the output buffer; 1 + t is the one scratch
    array.
    """
    x = _as_f64(x)
    out = np.abs(x, out=np.empty_like(x))
    np.negative(out, out=out)
    np.exp(out, out=out)
    den = out + 1.0
    np.copyto(out, 1.0, where=x >= 0.0)
    return np.divide(out, den, out=out)


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
    """Apply ``step(i, state)`` for i = 1, 2, ... until ``done(state)`` holds
    everywhere; raise if that takes ``max_iter`` steps.

    ``state`` is a tuple of equal-length arrays whose first two are the value
    and its derivative; ``step`` updates them in place, the scratch arrays at
    the tuple's end included.  Convergence is tested every ``_CHECK_EVERY``
    steps; once three quarters of the working set has converged, those
    elements are written out and dropped, so the slow ones finish on a small
    array.  An element may run a few steps past its own convergence; that
    moves it by less than 1e-16 relative, as both sums' increments keep
    shrinking.
    """
    n = state[0].size
    val = np.empty(n)
    dval = np.empty(n)
    idx = np.arange(n)
    for i in range(1, max_iter):
        step(i, state)
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
    # S = sum_n t_n, t_0 = 1/a, t_n = t_{n-1} x / (a + n); one scratch array.
    term = 1.0 / a
    dterm = -term * term
    return term.copy(), dterm.copy(), a, x, term, dterm, np.empty_like(a)


def _series_step(i, state):
    s, ds, a, x, term, dterm, ap = state
    np.add(a, i, out=ap)
    np.multiply(term, x, out=term)
    np.divide(term, ap, out=term)
    np.multiply(dterm, x, out=dterm)     # product rule on t_{n-1} * x / (a + n)
    np.subtract(dterm, term, out=dterm)
    np.divide(dterm, ap, out=dterm)
    np.add(s, term, out=s)
    np.add(ds, dterm, out=ds)


def _series_done(state):
    # Every t_n > 0 and dt_n = -t_n sum_{k<=n} 1/(a+k) < 0, so |dt_n| <= eps |dS|
    # implies t_n <= eps S: one test covers the value and the derivative.
    lim = np.multiply(state[1], _EPS, out=state[6])
    return state[5] >= lim


def _cf_start(a, x):
    # Steed: D_0 = 1/b_0, increment dl_0 = H_0 = D_0; db_i/da = -1.  Three
    # scratch arrays.
    b = x + 1.0 - a
    d = 1.0 / b
    dd = d * d
    return (d.copy(), dd.copy(), a, b, d, dd, d.copy(), dd.copy(),
            np.empty_like(a), np.empty_like(a), np.empty_like(a))


def _cf_step(i, state):
    # D_i = 1 / (b_i + a_i D_{i-1}), dl_i = (b_i D_i - 1) dl_{i-1}, H_i = H_{i-1} + dl_i.
    # On x >= a + 1 the denominator stays above b_i / 2 (checked for a in
    # [1e-3, 1e4], x up to 1e3 (a + 1)), so it needs no zero guard.
    h, dh, a, b, d, dd, dl, ddl, an, ddn, tmp = state
    np.subtract(a, i, out=an)
    np.multiply(an, i, out=an)           # a_i = i (a - i), with da_i/da = i
    np.add(b, 2.0, out=b)
    np.multiply(d, i, out=ddn)           # -d/da of b_i + a_i D_{i-1}:
    np.subtract(1.0, ddn, out=ddn)       # 1 - i D_{i-1} - a_i dD_{i-1}
    np.multiply(an, dd, out=tmp)
    np.subtract(ddn, tmp, out=ddn)
    np.multiply(an, d, out=tmp)
    np.add(b, tmp, out=tmp)
    np.divide(1.0, tmp, out=d)
    np.multiply(ddn, d, out=dd)
    np.multiply(dd, d, out=dd)
    m = np.multiply(b, d, out=an)        # m = b_i D_i - 1, in a_i's buffer
    np.subtract(m, 1.0, out=m)
    np.multiply(b, dd, out=tmp)          # ddl = (b_i dD_i - D_i) dl + m ddl
    np.subtract(tmp, d, out=tmp)
    np.multiply(tmp, dl, out=tmp)
    np.multiply(m, ddl, out=ddl)
    np.add(tmp, ddl, out=ddl)
    np.multiply(m, dl, out=dl)
    np.add(h, dl, out=h)
    np.add(dh, ddl, out=dh)


def _cf_done(state):
    # H > 0 and dH/da > 0 on this branch.
    h, dh, dl, ddl, lim, mag = state[0], state[1], state[6], state[7], state[9], state[10]
    ok = np.abs(dl, out=mag) <= np.multiply(h, _EPS, out=lim)
    return ok & (np.abs(ddl, out=mag) <= np.multiply(dh, _EPS, out=lim))
