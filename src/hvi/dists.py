"""Parametric densities: log densities and reparameterized sampling.

Every density is written once against the tape; parameters and values may be
plain arrays (auto-lifted to constants) or live nodes.  Vector-shaped
parameters mean a per-dimension product over the trailing axis, so a
``(rows, d)`` mean/scale pair scores ``(rows, d)`` values to ``(rows,)``
log densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import special
from .rng import RngStream
from .tape import NodeId, Tape

_LOG_2PI = float(np.log(2.0 * np.pi))

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


def _reduce_last(t: Tape, node, value):
    # (rows, dim) inputs are per-dimension products: sum the trailing axis.
    # Scalars and 1-d vectors are independent evaluations, left elementwise.
    if np.asarray(value).ndim >= 2:
        return t.sum(node, axis=-1)
    return node


def log_prob(dist, value, t: Tape) -> NodeId:
    """Natural-log density, recorded on the tape (differentiable end to end)."""
    p = dist.params
    if dist.kind == "normal":
        z = t.div(t.sub(value, p["mean"]), p["stddev"])
        lp = t.sub(t.mul(-0.5, t.square(z)), t.add(t.log(p["stddev"]), 0.5 * _LOG_2PI))
    elif dist.kind == "exponential":
        _check_support("exponential", value, t, lower=0.0)
        lp = t.sub(t.log(p["rate"]), t.mul(p["rate"], value))
    elif dist.kind == "gamma":
        _check_support("gamma", value, t, lower=0.0, strict=True)
        a, r = p["concentration"], p["rate"]
        lp = t.sub(t.add(t.mul(a, t.log(r)), t.mul(t.sub(a, 1.0), t.log(value))),
                   t.add(t.lgamma(a), t.mul(r, value)))
    elif dist.kind == "bernoulli":
        # x*log sigmoid(l) + (1-x)*log sigmoid(-l) = x*l - softplus(l),
        # since log sigmoid(l) = l - softplus(l): one softplus pass.
        l = p["logits"]
        lp = t.sub(t.mul(value, l), t.softplus(l))
    else:  # pragma: no cover
        raise UnsupportedKindError(dist.kind)
    return _reduce_last(t, lp, t.val(value))


def _check_support(kind, value, t, lower, strict=False):
    v = t.val(value)
    bad = v <= lower if strict else v < lower
    if np.any(bad):
        raise ValueError(f"{kind} log_prob: value outside support ({float(np.min(v))})")


def sample_reparam(dist: DistributionSpec, rng: RngStream, t: Tape, shape=None) -> NodeId:
    """Pathwise-differentiable draw; shape defaults to the broadcast param shape.

    Normal is location-scale; a plain-array stddev is folded into the noise as
    one constant node.  Exponential inverts one uniform.
    Gamma draws by Marsaglia-Tsang rejection (``RngStream.gamma``) and
    differentiates by the implicit CDF rule, exact to ~1e-14 relative (see
    ``gamma_implicit_grad``).
    """
    if dist.kind not in CONTINUOUS_KINDS:
        raise UnsupportedKindError(f"sample_reparam does not support {dist.kind}")
    p = dist.params
    if shape is None:
        shape = np.broadcast_shapes(*(np.asarray(t.val(v)).shape for v in p.values()))
    if dist.kind == "normal":
        eps = rng.normal(shape)
        if not isinstance(p["stddev"], NodeId):
            return t.add(p["mean"], t.const(p["stddev"] * eps))
        return t.add(p["mean"], t.mul(p["stddev"], eps))
    if dist.kind == "exponential":
        e = rng.exponential(1.0, shape)
        return t.div(t.const(e), p["rate"])
    # gamma
    return t.gamma_sample(p["concentration"], p["rate"], rng, gamma_implicit_grad,
                          shape=shape)


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
    dx_da = x * (dsums + sums * (np.log(x) - special.digamma(a)))
    d_dconc = np.where(upper, dx_da, -dx_da) / r
    d_drate = -s / r
    return d_dconc, d_drate


def log_prob_value(dist, value) -> np.ndarray:
    """Convenience: numeric log density without keeping a tape."""
    t = Tape(requires_grad=False)
    return t.val(log_prob(dist, value, t))
