"""Parametric densities: log densities and reparameterized sampling.

Every density is written once against the tape; parameters and values may be
plain arrays (auto-lifted to constants) or live nodes.  Vector-shaped
parameters mean a per-dimension product over the trailing axis, so a
``(rows, d)`` mean/scale pair scores ``(rows, d)`` values to ``(rows,)``
log densities; 0-d and 1-d values are scored as one-column rows, one log
density per entry.  Nothing is tiled: where 2-d values and parameters differ in
row count, n·R k-major rows meet R rows by broadcasting (the taller side
viewed as (n, R, d) blocks) and give n·R log densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import special
from .rng import RngStream
from .tape import NodeId, Tape

CONTINUOUS_KINDS = ("normal", "exponential", "gamma")
DISCRETE_KINDS = ("bernoulli",)


class UnsupportedKindError(TypeError):
    """Operation does not apply to this distribution kind."""


@dataclass(frozen=True)
class DistributionSpec:
    """One parametric family instance; params are arrays or tape nodes."""

    kind: str
    params: dict[str, Any]

    def __post_init__(self):
        if self.kind not in CONTINUOUS_KINDS + DISCRETE_KINDS:
            raise UnsupportedKindError(f"unknown distribution kind {self.kind!r}")
        for name, v in self.params.items():
            if isinstance(v, NodeId):
                continue
            arr = np.asarray(v, dtype=np.float64)
            if name in ("stddev", "rate", "concentration") and np.any(arr <= 0.0):
                raise ValueError(f"{self.kind}.{name} must be positive")


def normal(mean, stddev) -> DistributionSpec:
    return DistributionSpec("normal", {"mean": mean, "stddev": stddev})


def exponential(rate) -> DistributionSpec:
    return DistributionSpec("exponential", {"rate": rate})


def gamma(concentration, rate) -> DistributionSpec:
    return DistributionSpec("gamma", {"concentration": concentration, "rate": rate})


def bernoulli(logits) -> DistributionSpec:
    return DistributionSpec("bernoulli", {"logits": logits})


def sample_blocks(rows: int, short_rows: int, short: str) -> int:
    """Number n of k-major sample blocks when ``rows`` = n * ``short_rows``;
    ``short`` names what those rows are rows of, for the error."""
    if short_rows < 1 or rows % short_rows:
        raise ValueError(f"{rows} sample rows are not a multiple of the {short_rows} rows of {short}")
    return rows // short_rows


def _rows(v, t: Tape) -> int:
    shape = np.shape(t.val(v))
    return shape[0] if len(shape) == 2 else 0


def _reshaped(v, shape, t: Tape):
    return t.reshape(v, shape) if isinstance(v, NodeId) else np.reshape(v, shape)


def _as_blocks(v, rows: int, short: str, t: Tape):
    """A (n·rows, d) node or array viewed as (n, rows, d) sample blocks that
    meet the ``rows`` rows of ``short``."""
    shape = np.shape(t.val(v))
    return _reshaped(v, (sample_blocks(shape[0], rows, short), rows, shape[1]), t)


def _column(v, t: Tape):
    """``v`` with one trailing column, so a trailing-axis sum keeps each entry."""
    return _reshaped(v, np.shape(t.val(v)) + (1,), t)


def log_prob(dist, value, t: Tape) -> NodeId:
    """Natural-log density, recorded on the tape (differentiable end to end).

    A value of two or more axes is scored per row, summed over its trailing
    axis.  A 0-d or 1-d value is scored entry by entry: it and every non-scalar
    parameter gain one trailing column, so each entry is a one-column row,
    and the result takes their broadcast shape.

    The Normal density is one ``normal_log_prob`` node with the trailing-axis
    sum folded in: its forward runs the textbook chain -0.5 ((x - mu) / sd)^2
    - (log sd + log(2 pi) / 2) in one buffer, and its backward forms only the
    adjoints that value, mean and stddev need, bit for bit as that chain
    would.  The Bernoulli density is likewise one ``bernoulli_log_prob``
    node for x l - softplus(l), and the Gamma density one ``gamma_log_prob``
    node for a log r + (a - 1) log x - lgamma(a) - r x.  Exponential is a
    chain of elementwise nodes and a trailing-axis ``sum``.
    """
    p = dist.params
    shape = None
    if np.ndim(t.val(value)) < 2:
        shape = np.broadcast_shapes(*(np.shape(t.val(v)) for v in (value, *p.values())))
        value = _column(value, t)
        p = {k: _column(v, t) if np.ndim(t.val(v)) else v for k, v in p.items()}
    v_rows, p_rows = _rows(value, t), max(_rows(v, t) for v in p.values())
    if v_rows > p_rows > 0:
        value = _as_blocks(value, p_rows, "the density's parameters", t)
    elif p_rows > v_rows > 0:
        p = {k: _as_blocks(v, v_rows, "the density's value", t) if _rows(v, t) == p_rows else v
             for k, v in p.items()}
    if dist.kind == "normal":
        lp = t.normal_log_prob(value, p["mean"], p["stddev"])
    elif dist.kind == "bernoulli":
        # x*log sigmoid(l) + (1-x)*log sigmoid(-l) = x*l - softplus(l),
        # since log sigmoid(l) = l - softplus(l): one softplus pass.
        lp = t.bernoulli_log_prob(value, p["logits"])
    elif dist.kind == "gamma":
        _check_support("gamma", value, t, lower=0.0, strict=True)
        lp = t.gamma_log_prob(value, p["concentration"], p["rate"])
    else:
        _check_support("exponential", value, t, lower=0.0)
        lp = t.sum(t.sub(t.log(p["rate"]), t.mul(p["rate"], value)), axis=-1)
        lp = t.reshape(lp, (-1,)) if np.ndim(t.val(lp)) > 1 else lp
    return lp if shape in (None, np.shape(t.val(lp))) else t.reshape(lp, shape)


def _check_support(kind, value, t, lower, strict=False):
    v = t.val(value)
    bad = v <= lower if strict else v < lower
    if np.any(bad):
        raise ValueError(f"{kind} log_prob: value outside support ({float(np.min(v))})")


def sample_reparam(dist: DistributionSpec, rng: RngStream, t: Tape, n: int = 1,
                   first=None) -> NodeId:
    """Pathwise-differentiable draw of ``n`` k-major blocks of the param shape,
    stacked after the rows of ``first`` when it is given.

    Normal is location-scale.  With a plain-array stddev the draws are one
    ``located_draws`` node: the noise is drawn straight into the rows after
    first's and shifted by the mean there, so the stack is the only copy.
    Exponential inverts one uniform.
    Gamma draws by Marsaglia-Tsang rejection (``RngStream.gamma``) and
    differentiates by the implicit CDF rule, exact to ~1e-14 relative (see
    ``gamma_implicit_grad``, called on a grad tape only); ``Tape.gamma_sample``
    records the draw with those partials.
    """
    if dist.kind not in CONTINUOUS_KINDS:
        raise UnsupportedKindError(f"sample_reparam does not support {dist.kind}")
    p = dist.params
    base = np.broadcast_shapes(*(np.asarray(t.val(v)).shape for v in p.values()))
    shape = (n,) + base if n > 1 else base
    flat = (n * base[0],) + base[1:] if n > 1 and base else shape   # k-major rows
    if dist.kind == "normal" and not isinstance(p["stddev"], NodeId):
        head = 0 if first is None else np.shape(t.val(first))[0]
        buf = np.empty(flat if first is None else (head + flat[0],) + flat[1:])
        noise = rng.normal(shape, out=(buf[head:] if head else buf).reshape(shape))
        np.multiply(noise, p["stddev"], out=noise)
        return t.located_draws(p["mean"], buf, shape, first)
    if dist.kind == "normal":
        draws = t.add(p["mean"], t.mul(p["stddev"], rng.normal(shape)))
    elif dist.kind == "exponential":
        draws = t.div(t.const(rng.exponential(1.0, shape)), p["rate"])
    else:
        conc, rate = t.val(p["concentration"]), t.val(p["rate"])
        sample = rng.gamma(conc, rate, shape=shape)
        partials = gamma_implicit_grad(conc, rate, sample) if t.requires_grad else (None, None)
        draws = t.gamma_sample(p["concentration"], p["rate"], sample, *partials)
    draws = t.reshape(draws, flat) if flat != shape else draws
    return draws if first is None else t.concat([first, draws])


def gamma_implicit_grad(concentration, rate, sample):
    """Pathwise derivatives of a Gamma draw by implicit CDF differentiation.

    d(sample)/d(rate) = -sample/rate, since rate is a scale parameter.  With
    x = rate * sample and F the unit-rate CDF, d(sample)/d(concentration) =
    -(dF/dconc)(x) / (rate * pdf(x)), computed exactly in one pass from the
    incomplete-gamma sums and their concentration derivatives
    (``special.gammainc_sums``).  The prefactor x^a e^-x / Gamma(a) of those
    sums cancels against the density, leaving -x (dS + S (log x - digamma(a)))
    on the series branch and x (dH + H (log x - digamma(a))) on the
    continued-fraction branch.  Non-finite or non-positive inputs raise
    ValueError.
    """
    a = np.asarray(concentration, dtype=np.float64)
    r = np.asarray(rate, dtype=np.float64)
    s = np.asarray(sample, dtype=np.float64)
    for name, v in (("concentration", a), ("rate", r), ("sample", s)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"gamma_implicit_grad requires a finite {name}")
    if np.any(s <= 0.0) or np.any(a <= 0.0) or np.any(r <= 0.0):
        raise ValueError("gamma_implicit_grad requires positive sample and parameters")
    x = r * s
    sums, dsums, upper = special.gammainc_sums(a, x)
    # x (dsums + sums (log x - digamma(a))), negated off ``upper``, over r:
    # formed in log x's buffer.
    d_dconc = np.log(x, out=np.empty(sums.shape))
    np.subtract(d_dconc, special.digamma(a), out=d_dconc)
    np.multiply(sums, d_dconc, out=d_dconc)
    np.add(dsums, d_dconc, out=d_dconc)
    np.multiply(x, d_dconc, out=d_dconc)
    np.negative(d_dconc, out=d_dconc, where=~upper)
    np.divide(d_dconc, r, out=d_dconc)
    return d_dconc, -s / r


def log_prob_value(dist, value) -> np.ndarray:
    """Convenience: numeric log density without keeping a tape."""
    t = Tape(requires_grad=False)
    return t.val(log_prob(dist, value, t))
