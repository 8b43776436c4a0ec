"""Hierarchical models, auxiliary inference networks, and concrete families.

A hierarchical model is a mixture q(z | x) = integral q(z | psi, x) q(psi | x)
dpsi exposed through component samplers and log densities; the joint density
is only ever accessed as the sum log q(psi | x) + log q(z | psi, x).

Batching convention: all samplers and densities act on row-aligned arrays or
tape nodes, where continuous values have shape (rows, dim) and finite-support
values are integer code arrays of shape (rows,).  Conditioning inputs ``x``
are plain float arrays of shape (rows, x_dim) with x_dim >= 0.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import dists
from .rng import RngStream
from .tape import NodeId, ParamStore, Tape


class UnsupportedModelError(TypeError):
    """The model lacks a capability this operation requires."""


@dataclass
class FiniteModelInfo:
    """Exact tables of a finite hierarchical model, used by enumeration."""

    psi_probs: np.ndarray      # (s,)
    z_given_psi: np.ndarray    # (s, t) rows are conditional pmfs over z

    @property
    def psi_size(self) -> int:
        return len(self.psi_probs)

    @property
    def z_size(self) -> int:
        return self.z_given_psi.shape[1]

    def joint(self, psi: int, z: int) -> float:
        return float(self.psi_probs[psi] * self.z_given_psi[psi, z])

    def marginal(self, z: int) -> float:
        return float(self.psi_probs @ self.z_given_psi[:, z])

    def posterior_psi(self, z: int) -> np.ndarray:
        w = self.psi_probs * self.z_given_psi[:, z]
        return w / w.sum()


@dataclass
class HierarchicalModel:
    """q(z, psi | x) through its components, plus optional oracle hooks."""

    psi_dim: int
    z_dim: int
    sample_psi: Callable          # (x, rng, tape) -> psi  (rows from x.shape[0])
    sample_z: Callable            # (psi, x, rng, tape) -> z
    log_psi_prior: Callable       # (psi, x, tape) -> (rows,)
    log_z_given_psi: Callable     # (z, psi, x, tape) -> (rows,)
    exact_log_marginal: Callable | None = None          # (z, x) -> (rows,) floats
    sample_psi_posterior: Callable | None = None        # (z, x, rng, tape) -> psi
    finite: FiniteModelInfo | None = None

    @property
    def discrete(self) -> bool:
        return self.finite is not None


def log_joint(model: HierarchicalModel, z, psi, x, t: Tape) -> NodeId:
    """log q(z, psi | x); the only joint-density accessor."""
    return t.add(model.log_psi_prior(psi, x, t), model.log_z_given_psi(z, psi, x, t))


def sample_joint(model: HierarchicalModel, x, rng: RngStream, t: Tape):
    """(psi0, z) drawn from the joint q(psi, z | x)."""
    psi0 = model.sample_psi(x, rng, t)
    z = model.sample_z(psi0, x, rng, t)
    return psi0, z


@dataclass
class AuxiliaryInference:
    """Conditional density tau(psi | z, x) with reparameterized sampling.

    ``sample(z, x, k, rng, tape)`` returns k draws per row stacked k-major:
    block j of rows holds the j-th draw for every row.  All implemented tau
    have full support on psi's domain, so support domination holds by
    construction.

    ``stop_params=True`` puts tau's parameters behind ``stop_gradient``, so
    the density passes gradient only to psi and z.  The fused
    ``sample_and_score`` also draws its k samples from the frozen
    parameters, so under ``stop_params=True`` no gradient reaches tau's
    parameters at all, through the density or the draws.  ``run_vae`` with
    ``estimator=dreg`` relies on that: tau's gradient there comes from
    ``grad_iwhvi_dreg`` alone.  sample + log_prob(stop_params=True) keeps the
    draws' parameter path live, so the two routes agree only for
    ``stop_params=False``.
    """

    log_prob: Callable            # (psi, z, x, tape, stop_params=False) -> (rows,)
    sample: Callable              # (z, x, k, rng, tape) -> psi stacked k-major
    param_names: tuple = ()
    discrete: bool = False
    # Optional fused path: (z, x, k, psi0, rng, tape, stop_params) ->
    # (psis = [psi0; k draws] stacked k-major, log tau over all k+1 blocks),
    # running the conditioner once.
    sample_and_score: Callable | None = None


def conditional_tau(params: Callable, family: Callable, param_names: tuple) -> AuxiliaryInference:
    """tau(psi | z, x) = family(*params(z, x, tape, stop_params)), row by row.

    ``params`` returns per-row parameter nodes of shape (rows, psi_dim);
    ``family`` maps them to a ``dists`` spec that ``dists.sample_reparam``
    can draw from.  Builds log_prob, sample and the fused sample_and_score.
    """

    def log_prob(psi, z, x, t, stop_params=False):
        return dists.log_prob(family(*params(z, x, t, stop_params)), psi, t)

    def draw(p, k, rng, t):
        return dists.sample_reparam(family(*(t.tile_rows(v, k) for v in p)), rng, t)

    def sample(z, x, k, rng, t):
        return draw(params(z, x, t, False), k, rng, t)

    def sample_and_score(z, x, k, psi0, rng, t, stop_params=False):
        p = params(z, x, t, stop_params)
        # The k + 1 block is tiled before the draws: the reverse order does the
        # same work but moved snr unit times by 10-35% through allocator layout.
        p_all = [t.tile_rows(v, k + 1) for v in p]
        psis = cat_rows([psi0, draw(p, k, rng, t)], t) if k > 0 else psi0
        return psis, dists.log_prob(family(*p_all), psis, t)

    return AuxiliaryInference(log_prob=log_prob, sample=sample, param_names=param_names,
                              sample_and_score=sample_and_score)


@dataclass
class ExplicitPrior:
    log_prob: Callable            # (z, tape) -> (rows,)
    sample: Callable | None = None


@dataclass
class HierarchicalPrior:
    model: HierarchicalModel      # prior p(z, zeta) with zeta in the psi slot


@dataclass
class Generative:
    """Likelihood p(x | z) plus prior p(z), explicit or hierarchical."""

    log_lik: Callable             # (x, z, tape) -> (rows,)
    prior: ExplicitPrior | HierarchicalPrior


def flat_generative() -> Generative:
    """log p(x|z) = log p(z) = 0; turns the IWHVI machinery into pure U_K work."""

    def _rows(v, t):
        arr = t.val(v) if isinstance(v, NodeId) else np.asarray(v)
        return arr.shape[0]

    return Generative(
        log_lik=lambda x, z, t: t.const(np.zeros(_rows(z, t))),
        prior=ExplicitPrior(log_prob=lambda z, t: t.const(np.zeros(_rows(z, t)))),
    )


def rep_rows(value, n: int, t: Tape):
    """Tile rows k-major; works for nodes, float arrays and int code arrays."""
    if isinstance(value, NodeId):
        return t.tile_rows(value, n)
    arr = np.asarray(value)
    return np.tile(arr, (n,) + (1,) * (arr.ndim - 1))


def cat_rows(parts, t: Tape):
    if any(isinstance(p, NodeId) for p in parts):
        return t.concat([p if isinstance(p, NodeId) else t.const(p) for p in parts], axis=0)
    return np.concatenate(parts, axis=0)


# ---------------------------------------------------------------------------
# MLP conditionals with sigmoid gates
# ---------------------------------------------------------------------------

@dataclass
class HeadSpec:
    name: str
    dim: int
    transform: str                # identity | positive | logit
    fallback: np.ndarray | float  # prior parameter the gate blends toward


POSITIVE_FLOOR = 1e-6
GATE_BIAS_INIT = -5.0


@dataclass
class MlpCond:
    """MLP mapping conditioning inputs to distribution parameters.

    Softplus activations throughout.  When ``concat_extra`` is set, every
    layer (heads included) acts on its input concatenated with the extra
    conditioning vector.  A sigmoid gate output (weights zero-initialized,
    bias -5) blends each head with a fixed fallback parameter so a freshly
    initialized conditional sits on its fallback prior.
    """

    store: ParamStore
    prefix: str
    layer_sizes: tuple
    heads: tuple
    concat_extra: bool = False
    extra_dim: int = 0
    gated: bool = True

    def apply(self, t: Tape, inputs, extra=None, frozen: bool = False) -> dict:
        def p(name):
            node = t.param(self.store, f"{self.prefix}.{name}")
            return t.stop_gradient(node) if frozen else node

        h = inputs if isinstance(inputs, NodeId) else t.const(inputs)
        for i in range(len(self.layer_sizes) - 1):
            if self.concat_extra and extra is not None:
                h = t.concat([h, extra if isinstance(extra, NodeId) else t.const(extra)], axis=1)
            h = t.softplus(t.add(t.matmul(h, p(f"w{i}")), p(f"b{i}")))
        if self.concat_extra and extra is not None:
            h = t.concat([h, extra if isinstance(extra, NodeId) else t.const(extra)], axis=1)
        out = {}
        if self.gated:
            gate = t.sigmoid(t.add(t.matmul(h, p("w_gate")), p("b_gate")))  # (rows, 1)
            out["gate"] = gate
        for spec in self.heads:
            raw = t.add(t.matmul(h, p(f"w_{spec.name}")), p(f"b_{spec.name}"))
            if spec.transform == "identity":
                val = raw
            elif spec.transform == "positive":
                val = t.add(t.softplus(raw), POSITIVE_FLOOR)
            elif spec.transform == "logit":
                val = raw
            else:
                raise ValueError(f"unknown head transform {spec.transform!r}")
            if self.gated:
                fb = t.const(np.broadcast_to(np.asarray(spec.fallback, dtype=np.float64),
                                             (1, spec.dim)))
                val = t.add(t.mul(gate, val), t.mul(t.sub(1.0, gate), fb))
            out[spec.name] = val
        return out

    def param_names(self) -> tuple:
        return tuple(self.store.names(self.prefix + "."))


def _head_bias_init(spec: HeadSpec) -> np.ndarray:
    # Start each head exactly on its fallback so training begins at the prior
    # and the gate sees an unbiased improvement signal from step one.
    fb = np.broadcast_to(np.asarray(spec.fallback, dtype=np.float64), (spec.dim,))
    if spec.transform == "positive":
        from .special import inv_softplus
        return inv_softplus(np.maximum(fb - POSITIVE_FLOOR, 1e-6))
    if spec.transform == "logit":
        return np.zeros(spec.dim) if np.allclose(fb, 0.0) else np.array(fb, copy=True)
    return np.array(fb, copy=True)


def init_mlp_cond(store: ParamStore, prefix: str, in_dim: int, hidden: tuple, heads: tuple,
                  rng: RngStream, concat_extra: bool = False, extra_dim: int = 0,
                  gated: bool = True) -> MlpCond:
    sizes = (in_dim,) + tuple(hidden)
    eff = [s + (extra_dim if concat_extra else 0) for s in sizes]

    def glorot(fi, fo):
        lim = np.sqrt(6.0 / (fi + fo))
        return (rng.uniform((fi, fo)) * 2.0 - 1.0) * lim

    for i in range(len(sizes) - 1):
        store.add(f"{prefix}.w{i}", glorot(eff[i], sizes[i + 1]))
        store.add(f"{prefix}.b{i}", np.zeros(sizes[i + 1]))
    top = eff[-1]
    for spec in heads:
        # Down-scaled head weights + inverse-transform biases: the net output
        # starts near its fallback (so the closed gate sees an unbiased signal)
        # while every layer still receives a nonzero gradient.
        store.add(f"{prefix}.w_{spec.name}", 0.1 * glorot(top, spec.dim))
        store.add(f"{prefix}.b_{spec.name}", _head_bias_init(spec))
    if gated:
        store.add(f"{prefix}.w_gate", np.zeros((top, 1)))
        store.add(f"{prefix}.b_gate", np.full(1, GATE_BIAS_INIT))
    return MlpCond(store, prefix, sizes, tuple(heads), concat_extra, extra_dim, gated)


# ---------------------------------------------------------------------------
# Finite (oracle-capable) models
# ---------------------------------------------------------------------------

def _safe_log(p):
    with np.errstate(divide="ignore"):
        return np.where(p > 0, np.log(np.maximum(p, 1e-300)), -np.inf)


def _gather_log(t: Tape, log_table_node, codes):
    """Pick log_table[codes] via one-hot matvec (tape-differentiable).

    Only valid for finite tables (trainable log-softmax outputs); -inf
    entries would turn into NaN through the 0 * inf products.
    """
    codes = np.asarray(codes, dtype=np.int64)
    size = np.asarray(t.val(log_table_node)).shape[-1]
    onehot = np.zeros((codes.size, size))
    onehot[np.arange(codes.size), codes.reshape(-1)] = 1.0
    return t.matvec(onehot, log_table_node)


def _gather_const(t: Tape, log_table: np.ndarray, codes) -> NodeId:
    """Constant-table gather by direct indexing; preserves -inf exactly."""
    return t.const(log_table.reshape(-1)[np.asarray(codes, dtype=np.int64)])


def make_discrete_hvm(psi_probs, z_given_psi) -> HierarchicalModel:
    """Finite-support hierarchical model with exact marginals by summation."""
    psi_probs = np.asarray(psi_probs, dtype=np.float64)
    z_given_psi = np.asarray(z_given_psi, dtype=np.float64)
    if z_given_psi.ndim != 2 or z_given_psi.shape[0] != psi_probs.shape[0]:
        raise ValueError("z_given_psi must have one row of conditional probabilities per psi value")
    if abs(psi_probs.sum() - 1.0) > 1e-9 or np.any(np.abs(z_given_psi.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("probabilities must sum to 1")
    info = FiniteModelInfo(psi_probs, z_given_psi)
    log_psi = _safe_log(psi_probs)
    log_cond = _safe_log(z_given_psi)           # (s, t)

    def sample_psi(x, rng, t):
        rows = x.shape[0]
        return np.array([rng.categorical(psi_probs) for _ in range(rows)], dtype=np.int64)

    def sample_z(psi, x, rng, t):
        codes = np.asarray(psi, dtype=np.int64)
        return np.array([rng.categorical(z_given_psi[c]) for c in codes], dtype=np.int64)

    def log_psi_prior(psi, x, t):
        return _gather_const(t, log_psi, psi)

    def log_z_given_psi_fn(z, psi, x, t):
        flat = np.asarray(psi, dtype=np.int64) * info.z_size + np.asarray(z, dtype=np.int64)
        return _gather_const(t, log_cond, flat)

    def exact_log_marginal(z, x=None):
        z = np.asarray(z, dtype=np.int64)
        with np.errstate(divide="ignore"):
            return np.log(np.array([info.marginal(int(c)) for c in z.reshape(-1)])).reshape(z.shape)

    def sample_psi_posterior(z, x, rng, t):
        codes = np.asarray(z, dtype=np.int64)
        return np.array([rng.categorical(info.posterior_psi(int(c))) for c in codes], dtype=np.int64)

    return HierarchicalModel(
        psi_dim=1, z_dim=1,
        sample_psi=sample_psi, sample_z=sample_z,
        log_psi_prior=log_psi_prior, log_z_given_psi=log_z_given_psi_fn,
        exact_log_marginal=exact_log_marginal,
        sample_psi_posterior=sample_psi_posterior,
        finite=info,
    )


def make_discrete_tau(model: HierarchicalModel, probs=None, store: ParamStore | None = None,
                      name: str = "tau.logits") -> AuxiliaryInference:
    """Finite tau(psi | z): fixed table or trainable softmax logits.

    ``probs`` is a (z_size, psi_size) table of conditionals.  With a store,
    the table is parameterized by logits and trained via the tape.
    """
    info = model.finite
    if info is None:
        raise UnsupportedModelError("discrete tau requires a finite model")
    if probs is not None:
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (info.z_size, info.psi_size):
            raise ValueError("tau table has wrong shape")

    def _log_table(t: Tape, stop_params: bool):
        if store is not None:
            node = t.param(store, name)
            if stop_params:
                node = t.stop_gradient(node)
            norm = t.reshape(t.logsumexp(node, axis=1), (info.z_size, 1))
            return t.sub(node, norm)
        return t.const(_safe_log(probs))

    def log_prob(psi, z, x, t, stop_params=False):
        flat_codes = np.asarray(z, dtype=np.int64) * info.psi_size + np.asarray(psi, dtype=np.int64)
        if store is None:
            return _gather_const(t, _safe_log(probs), flat_codes)
        table = _log_table(t, stop_params)   # (z_size, psi_size) log softmax
        return _gather_log(t, t.reshape(table, (info.z_size * info.psi_size,)), flat_codes)

    def sample(z, x, k, rng, t):
        table = np.exp(t.val(_log_table(Tape(requires_grad=False), True)))
        codes = np.asarray(z, dtype=np.int64)
        out = [np.array([rng.categorical(table[int(c)]) for c in codes], dtype=np.int64)
               for _ in range(k)]
        return np.concatenate(out, axis=0)

    return AuxiliaryInference(log_prob=log_prob, sample=sample,
                              param_names=(name,) if store is not None else (),
                              discrete=True)


def posterior_tau(model: HierarchicalModel) -> AuxiliaryInference:
    """tau := exact posterior q(psi | z); available for finite models only."""
    info = model.finite
    if info is None:
        raise UnsupportedModelError("posterior tau requires a finite model")
    table = np.stack([info.posterior_psi(j) for j in range(info.z_size)], axis=0)
    return make_discrete_tau(model, probs=table)


def prior_tau(model: HierarchicalModel) -> AuxiliaryInference:
    """tau := q(psi | x), the SIVI choice; inherits the model's own sampler."""

    def log_prob(psi, z, x, t, stop_params=False):
        return model.log_psi_prior(psi, x, t)

    def sample(z, x, k, rng, t):
        if model.discrete:
            rows = np.asarray(z).shape[0]
            return np.concatenate(
                [np.array([rng.categorical(model.finite.psi_probs) for _ in range(rows)],
                          dtype=np.int64) for _ in range(k)], axis=0)
        xk = np.tile(x, (k, 1))
        return model.sample_psi(xk, rng, t)

    return AuxiliaryInference(log_prob=log_prob, sample=sample, discrete=model.discrete)


# ---------------------------------------------------------------------------
# Laplace scale mixture (toy experiment model)
# ---------------------------------------------------------------------------

def make_laplace_scale_mixture(dim: int) -> HierarchicalModel:
    """psi_d ~ Exp(rate 1/2), z_d | psi ~ N(0, variance psi_d).

    The Normal is parameterized by variance psi_d (stddev sqrt(psi_d)): that
    is the reading under which the psi-marginal of z is exactly standard
    Laplace, which the quadrature oracle pins down.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    half = dists.exponential(0.5)

    def sample_psi(x, rng, t):
        return t.const(rng.exponential(0.5, (x.shape[0], dim)))

    def sample_z(psi, x, rng, t):
        eps = rng.normal(np.shape(t.val(psi)))
        return t.mul(t.sqrt(psi), eps)

    def log_psi_prior(psi, x, t):
        return dists.log_prob(half, psi, t)

    def log_z(z, psi, x, t):
        return dists.log_prob(dists.normal(0.0, t.sqrt(psi)), z, t)

    def exact_log_marginal(z, x=None):
        z = np.asarray(z, dtype=np.float64)
        return (-np.log(2.0) - np.abs(z)).sum(axis=-1)

    return HierarchicalModel(psi_dim=dim, z_dim=dim,
                             sample_psi=sample_psi, sample_z=sample_z,
                             log_psi_prior=log_psi_prior, log_z_given_psi=log_z,
                             exact_log_marginal=exact_log_marginal)


def make_gamma_mlp_tau(dim: int, hidden: tuple, store: ParamStore, rng: RngStream,
                       prefix: str = "tau") -> AuxiliaryInference:
    """Gamma tau(psi | z) with concentration/rate from a gated MLP.

    The net sees concat(z, |z|): the inverse conditional of a scale mixture is
    even in z, and handing the symmetry to the net directly buys most of the
    fit within a couple thousand steps.  Gate fallbacks are the Exp(1/2)
    prior written as Gamma(1, 1/2), so the untrained tau reproduces the SIVI
    choice.
    """
    heads = (HeadSpec("concentration", dim, "positive", 1.0),
             HeadSpec("rate", dim, "positive", 0.5))
    mlp = init_mlp_cond(store, prefix, 2 * dim, tuple(hidden), heads, rng)

    def params(z, x, t, stop_params):
        zn = z if isinstance(z, NodeId) else t.const(z)
        feats = t.concat([zn, t.abs(zn)], axis=1)
        out = mlp.apply(t, feats, frozen=stop_params)
        return out["concentration"], out["rate"]

    return conditional_tau(params, dists.gamma, mlp.param_names())


# ---------------------------------------------------------------------------
# SNR toy task
# ---------------------------------------------------------------------------

SNR_DIM = 10
SNR_TAU_VAR = 2.0 / 3.0


def make_snr_task(store: ParamStore | None = None, rng: RngStream | None = None):
    """10-d conjugate pair q(x, z) = N(x | z, I) N(z | 1, I) with linear Gaussian tau.

    Returns (model, tau, store).  In the hierarchical-model slots, psi is the
    latent z of the pair and z is the observed x; tau(psi | z) = N(A z + b,
    2/3 I) with trainable A, b.
    """
    theta = np.ones(SNR_DIM)
    if store is None:
        store = ParamStore()
    if rng is None:
        rng = RngStream(0)
    if "snr.A" not in store:
        store.add("snr.A", (rng.uniform((SNR_DIM, SNR_DIM)) * 2 - 1) * 0.3)
        store.add("snr.b", (rng.uniform((SNR_DIM,)) * 2 - 1) * 0.3)

    def sample_psi(x, rng_, t):
        return t.const(theta + rng_.normal((x.shape[0], SNR_DIM)))

    def sample_z(psi, x, rng_, t):
        return t.add(psi, t.const(rng_.normal(np.shape(t.val(psi)))))

    def log_psi_prior(psi, x, t):
        return dists.log_prob(dists.normal(theta, 1.0), psi, t)

    def log_z(z, psi, x, t):
        return dists.log_prob(dists.normal(psi, 1.0), z, t)

    def exact_log_marginal(z, x=None):
        z = np.asarray(z, dtype=np.float64)
        return dists.log_prob_value(dists.normal(theta, np.sqrt(2.0)), z)

    def sample_psi_posterior(z, x, rng_, t):
        zv = t.val(z) if isinstance(z, NodeId) else np.asarray(z)
        mean = 0.5 * (zv + theta)
        return t.const(mean + np.sqrt(0.5) * rng_.normal(mean.shape))

    model = HierarchicalModel(psi_dim=SNR_DIM, z_dim=SNR_DIM,
                              sample_psi=sample_psi, sample_z=sample_z,
                              log_psi_prior=log_psi_prior, log_z_given_psi=log_z,
                              exact_log_marginal=exact_log_marginal,
                              sample_psi_posterior=sample_psi_posterior)

    std = np.sqrt(SNR_TAU_VAR)

    def tau_mean(z, x, t, stop_params):
        A = t.param(store, "snr.A")
        b = t.param(store, "snr.b")
        if stop_params:
            A, b = t.stop_gradient(A), t.stop_gradient(b)
        zn = z if isinstance(z, NodeId) else t.const(z)
        return (t.add(t.matmul(zn, A), t.reshape(b, (1, SNR_DIM))),)

    tau = conditional_tau(tau_mean, lambda mean: dists.normal(mean, std), ("snr.A", "snr.b"))
    return model, tau, store


# ---------------------------------------------------------------------------
# Mini VAE
# ---------------------------------------------------------------------------

@dataclass
class MiniVae:
    gen: Generative
    q: HierarchicalModel
    tau: AuxiliaryInference
    store: ParamStore
    input_dim: int
    z_dim: int
    psi_dim: int
    decoder: MlpCond = field(repr=False, default=None)


def make_mini_vae(input_dim: int = 784, z_dim: int = 8, psi_dim: int = 8,
                  hidden=(64, 64), rng: RngStream | None = None,
                  store: ParamStore | None = None) -> MiniVae:
    """Bernoulli-decoder VAE with a hierarchical Gaussian encoder.

    Encoder layers act on their input concatenated with psi (heads included);
    q(psi | x) = N(0, I); tau(psi | z, x) is a Gaussian MLP on concat(x, z).
    """
    if min(input_dim, z_dim, psi_dim) < 1:
        raise ValueError("all dims must be >= 1")
    rng = rng or RngStream(0)
    store = store or ParamStore()
    hidden = tuple(hidden)

    dec = init_mlp_cond(store, "dec", z_dim, hidden,
                        (HeadSpec("logits", input_dim, "logit", 0.0),), rng)
    enc = init_mlp_cond(store, "enc", input_dim, hidden,
                        (HeadSpec("mean", z_dim, "identity", 0.0),
                         HeadSpec("stddev", z_dim, "positive", 1.0)),
                        rng, concat_extra=True, extra_dim=psi_dim)
    tau_net = init_mlp_cond(store, "tau", input_dim + z_dim, hidden,
                            (HeadSpec("mean", psi_dim, "identity", 0.0),
                             HeadSpec("stddev", psi_dim, "positive", 1.0)), rng)

    std_norm = dists.normal(0.0, 1.0)

    def log_lik(x, z, t):
        out = dec.apply(t, z)
        return dists.log_prob(dists.bernoulli(logits=out["logits"]), t.const(x), t)

    gen = Generative(log_lik=log_lik,
                     prior=ExplicitPrior(log_prob=lambda z, t: dists.log_prob(std_norm, z, t)))

    def sample_psi(x, rng_, t):
        return t.const(rng_.normal((x.shape[0], psi_dim)))

    def enc_params(x, psi, t):
        out = enc.apply(t, np.asarray(x, dtype=np.float64), extra=psi)
        return out["mean"], out["stddev"]

    def sample_z(psi, x, rng_, t):
        mean, std = enc_params(x, psi, t)
        return t.add(mean, t.mul(std, t.const(rng_.normal(np.shape(t.val(mean))))))

    def log_psi_prior(psi, x, t):
        return dists.log_prob(std_norm, psi, t)

    def log_z_given_psi(z, psi, x, t):
        mean, std = enc_params(x, psi, t)
        return dists.log_prob(dists.normal(mean, std), z, t)

    q = HierarchicalModel(psi_dim=psi_dim, z_dim=z_dim,
                          sample_psi=sample_psi, sample_z=sample_z,
                          log_psi_prior=log_psi_prior, log_z_given_psi=log_z_given_psi)

    def tau_params(z, x, t, stop_params):
        zn = z if isinstance(z, NodeId) else t.const(z)
        inp = t.concat([t.const(np.asarray(x, dtype=np.float64)), zn], axis=1)
        out = tau_net.apply(t, inp, frozen=stop_params)
        return out["mean"], out["stddev"]

    tau = conditional_tau(tau_params, dists.normal, tau_net.param_names())
    return MiniVae(gen=gen, q=q, tau=tau, store=store, input_dim=input_dim,
                   z_dim=z_dim, psi_dim=psi_dim, decoder=dec)


# ---------------------------------------------------------------------------
# Checkpoints: flat binary of named float64 blocks
# ---------------------------------------------------------------------------
# Layout per block: u32 LE name length, UTF-8 name, u32 LE rank, u32 LE dims,
# row-major float64 LE payload.  Blocks are written sorted by name.

def save_params(path: str, store: ParamStore) -> None:
    with open(path, "wb") as fh:
        for name in sorted(store.names()):
            block = store[name]
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", block.ndim))
            for d in block.shape:
                fh.write(struct.pack("<I", d))
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_params(path: str) -> dict[str, np.ndarray]:
    blocks: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        data = fh.read()
    off = 0

    def take(n, what):
        nonlocal off
        if off + n > len(data):
            raise ValueError(f"checkpoint truncated at byte {off} while reading {what}")
        out = data[off:off + n]
        off += n
        return out

    while off < len(data):
        (nlen,) = struct.unpack("<I", take(4, "name length"))
        name = take(nlen, "name").decode("utf-8")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        shape = tuple(struct.unpack("<I", take(4, "dim"))[0] for _ in range(rank))
        count = int(np.prod(shape)) if shape else 1
        payload = take(8 * count, f"payload of {name}")
        blocks[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    return blocks
