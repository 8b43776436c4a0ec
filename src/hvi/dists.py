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

CONTINUOUS_KINDS = ("normal", "laplace", "exponential", "gamma")
DISCRETE_KINDS = ("bernoulli", "categorical")


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
            if self.kind == "categorical" and name == "probs":
                total = arr.sum(axis=-1)
                if np.any(np.abs(total - 1.0) > 1e-12):
                    raise ValueError("categorical probabilities must sum to 1")
            elif name in ("stddev", "scale", "rate", "concentration") and np.any(arr <= 0.0):
                raise ValueError(f"{self.kind}.{name} must be positive")
            elif name == "probability" and np.any((arr < 0.0) | (arr > 1.0)):
                raise ValueError("bernoulli probability must lie in [0, 1]")


def normal(mean, stddev) -> DistributionSpec:
    return DistributionSpec("normal", {"mean": mean, "stddev": stddev})


def laplace(loc, scale) -> DistributionSpec:
    return DistributionSpec("laplace", {"loc": loc, "scale": scale})


def exponential(rate) -> DistributionSpec:
    return DistributionSpec("exponential", {"rate": rate})


def gamma(concentration, rate) -> DistributionSpec:
    return DistributionSpec("gamma", {"concentration": concentration, "rate": rate})


def bernoulli(probability=None, logits=None) -> DistributionSpec:
    if (probability is None) == (logits is None):
        raise ValueError("bernoulli takes exactly one of probability / logits")
    if probability is not None:
        return DistributionSpec("bernoulli", {"probability": probability})
    return DistributionSpec("bernoulli", {"logits": logits})


def categorical(probs) -> DistributionSpec:
    return DistributionSpec("categorical", {"probs": probs})


@dataclass(frozen=True)
class FactorizedSpec:
    """Ordered per-dimension product of heterogeneous components."""

    components: tuple


def _reduce_last(t: Tape, node, value):
    # (rows, dim) inputs are per-dimension products: sum the trailing axis.
    # Scalars and 1-d vectors are independent evaluations, left elementwise.
    if np.asarray(value).ndim >= 2:
        return t.sum(node, axis=-1)
    return node


def log_prob(dist, value, t: Tape) -> NodeId:
    """Natural-log density, recorded on the tape (differentiable end to end)."""
    if isinstance(dist, FactorizedSpec):
        vals = np.asarray(value, dtype=np.float64) if not isinstance(value, NodeId) else None
        if vals is None:
            raise UnsupportedKindError("FactorizedSpec scores plain arrays only")
        total = None
        for i, comp in enumerate(dist.components):
            term = log_prob(comp, vals[..., i], t)
            total = term if total is None else t.add(total, term)
        return total
    p = dist.params
    if dist.kind == "normal":
        z = t.div(t.sub(value, p["mean"]), p["stddev"])
        lp = t.sub(t.mul(-0.5, t.square(z)), t.add(t.log(p["stddev"]), 0.5 * _LOG_2PI))
    elif dist.kind == "laplace":
        z = t.div(t.abs(t.sub(value, p["loc"])), p["scale"])
        lp = t.neg(t.add(z, t.add(t.log(p["scale"]), float(np.log(2.0)))))
    elif dist.kind == "exponential":
        _check_support("exponential", value, t, lower=0.0)
        lp = t.sub(t.log(p["rate"]), t.mul(p["rate"], value))
    elif dist.kind == "gamma":
        _check_support("gamma", value, t, lower=0.0, strict=True)
        a, r = p["concentration"], p["rate"]
        lp = t.sub(t.add(t.mul(a, t.log(r)), t.mul(t.sub(a, 1.0), t.log(value))),
                   t.add(t.lgamma(a), t.mul(r, value)))
    elif dist.kind == "bernoulli":
        v = value
        if "logits" in p:
            # x*log sigmoid(l) + (1-x)*log sigmoid(-l), in softplus form.
            l = p["logits"]
            lp = t.neg(t.add(t.mul(v, t.softplus(t.neg(l))),
                             t.mul(t.sub(1.0, v), t.softplus(l))))
        else:
            q = p["probability"]
            lp = t.add(t.mul(v, t.log(q)), t.mul(t.sub(1.0, v), t.log(t.sub(1.0, q))))
        return _reduce_last(t, lp, t.val(value))
    elif dist.kind == "categorical":
        probs = p["probs"]
        logp = t.log(probs)
        codes = np.asarray(value, dtype=np.int64)
        onehot = np.zeros(codes.shape + (np.asarray(t.val(probs)).shape[-1],))
        np.put_along_axis(onehot, codes[..., None], 1.0, axis=-1)
        if codes.ndim == 0:
            return t.dot(onehot, logp)
        return t.matvec(onehot, logp)
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

    Normal is location-scale, Laplace and Exponential invert one uniform.
    Gamma draws by Marsaglia-Tsang rejection (``RngStream.gamma``) and
    differentiates by the implicit CDF rule, exact to ~1e-14 relative (see
    ``gamma_implicit_grad``).
    """
    if dist.kind not in CONTINUOUS_KINDS:
        raise UnsupportedKindError(f"sample_reparam does not support {dist.kind}; use enumerate_support")
    p = dist.params
    if shape is None:
        shape = np.broadcast_shapes(*(np.asarray(t.val(v)).shape for v in p.values()))
    if dist.kind == "normal":
        eps = rng.normal(shape)
        return t.add(p["mean"], t.mul(p["stddev"], eps))
    if dist.kind == "laplace":
        u = rng.uniform(shape)
        u = np.where(u == 0.0, 0.5 * np.finfo(np.float64).eps, u)
        tt = u - 0.5
        g = -np.sign(tt) * np.log1p(-2.0 * np.abs(tt))
        return t.add(p["loc"], t.mul(p["scale"], g))
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


def enumerate_support(dist: DistributionSpec) -> list[tuple[int, float]]:
    """Exhaustive (value, probability) support of a finite distribution."""
    if dist.kind == "bernoulli":
        p = dist.params.get("probability")
        if p is None:
            p = special.sigmoid(np.asarray(dist.params["logits"], dtype=np.float64))
        p = float(np.asarray(p))
        return [(0, 1.0 - p), (1, p)]
    if dist.kind == "categorical":
        probs = np.asarray(dist.params["probs"], dtype=np.float64)
        return [(i, float(q)) for i, q in enumerate(probs)]
    raise UnsupportedKindError(f"enumerate_support does not apply to {dist.kind}")


def log_prob_value(dist, value) -> np.ndarray:
    """Convenience: numeric log density without keeping a tape."""
    t = Tape(requires_grad=False)
    return t.val(log_prob(dist, value, t))
