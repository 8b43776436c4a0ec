"""Hierarchical models, auxiliary inference networks, and concrete families.

A hierarchical model is a mixture q(z | x) = integral q(z | psi, x) q(psi | x)
dpsi exposed through component samplers and log densities; the joint density
is only ever accessed as the sum log q(psi | x) + log q(z | psi, x).

Batching convention: one sample layout, and nothing is tiled.  ``x`` is a
plain float array of shape (B, x_dim), x_dim >= 0, one row per observation.
Every sample-shaped value (psi, z, draws of tau) is an array or tape node of
n·R rows stacked k-major: block j of R rows holds the j-th sample for every
row it belongs to; continuous values have shape (n·R, dim), finite-support
values are int code arrays of shape (n·R,).  Where n·R sample rows meet the
R rows they belong to (x, z, or tau's parameter rows), the R rows broadcast
over the n blocks: conditionals compute x-only features on B rows,
``dists.log_prob`` scores the blocks against R-row parameters, and finite
tables index codes alike.  Row counts that are not a multiple raise
ValueError; equal ones (n = 1) are the plain row-aligned case.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial
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
        """q(psi | z); a z of zero marginal has none, and raises ValueError."""
        w = self.psi_probs * self.z_given_psi[:, z]
        total = w.sum()
        if total == 0.0:
            raise ValueError(f"posterior_psi: z = {z} has zero marginal probability")
        return w / total

    def posterior_table(self) -> np.ndarray:
        """(t, s) table of rows q(psi | z); a z of zero marginal, which has none, gets q(psi)."""
        return np.stack([self.posterior_psi(j) if self.marginal(j) > 0.0 else self.psi_probs
                         for j in range(self.z_size)], axis=0)


@dataclass
class HierarchicalModel:
    """q(z, psi | x) through its components, plus optional oracle hooks.

    ``log_z_given_psi`` takes untiled z and psi of equal rows or R and n·R
    rows either way round (the bounds pass R rows of z with n·R of psi, the
    SIVI pool n·R of z with R of psi), and returns n·R values.
    """

    sample_psi: Callable          # (x, rows, rng, tape) -> psi with ``rows`` rows
    sample_z: Callable            # (psi, x, rng, tape) -> z, one row per psi row
    log_psi_prior: Callable       # (psi, x, tape) -> (rows,)
    log_z_given_psi: Callable     # (z, psi, x, tape) -> one value per taller row
    exact_log_marginal: Callable | None = None          # (z, x) -> (rows,) floats
    sample_psi_posterior: Callable | None = None        # (z, x, rng, tape) -> psi
    finite: FiniteModelInfo | None = None


def log_joint(model: HierarchicalModel, z, psi, x, t: Tape) -> NodeId:
    """log q(z, psi | x); the only joint-density accessor."""
    return t.add(model.log_psi_prior(psi, x, t), model.log_z_given_psi(z, psi, x, t))


def sample_joint(model: HierarchicalModel, x, rng: RngStream, t: Tape, rows: int | None = None):
    """(psi0, z) drawn from the joint q(psi, z | x), ``rows`` rows (default: one per x row)."""
    psi0 = model.sample_psi(x, x.shape[0] if rows is None else rows, rng, t)
    z = model.sample_z(psi0, x, rng, t)
    return psi0, z


@dataclass
class AuxiliaryInference:
    """Conditional density tau(psi | z, x) with reparameterized sampling.

    ``sample_and_score(z, x, k, first, rng, tape)`` is how the bound
    estimators draw from and score tau: it returns ``psis`` = [first; k
    draws] stacked k-major (the k draws alone when ``first`` is None) and log
    tau(psis | z, x) over all of their blocks, with tau's parameters live.
    ``log_prob(psi, z, x, tape)`` takes n·R rows of psi and R untiled rows of z.
    All implemented tau have full support on psi's domain, so support
    domination holds by construction.

    A tau with a conditioner (``conditional_tau``) exposes it as ``params``
    and ``family``: ``family(*params(z, x, tape))`` is tau's density on the
    rows of z, a ``dists`` spec whose parameter nodes the DReG estimator
    (``grads.grad_iwhvi_dreg``) stops once.  Any other tau gives ``sample``
    instead, k draws per row stacked k-major, and ``sample_and_score`` is
    derived from it and ``log_prob``.
    """

    log_prob: Callable            # (psi, z, x, tape) -> one value per psi row
    sample: Callable = None       # (z, x, k, rng, tape) -> psi stacked k-major
    param_names: tuple = ()
    sample_and_score: Callable = None     # derived from sample + log_prob when None
    params: Callable = None       # (z, x, tape) -> parameter nodes, one row per z row
    family: Callable = None       # parameter nodes -> dists spec
    # The model whose q(psi | x) this tau is (``prior_tau``), else None.
    prior_of: HierarchicalModel | None = None

    def __post_init__(self):
        # Bound to the two callables, not to self: a bound method would make
        # every tau a reference cycle, freed only by the cyclic collector
        # (about 3 MB more peak RSS on vae-eval, one prior_tau per chunk).
        self.sample_and_score = self.sample_and_score or partial(
            _sample_then_score, self.sample, self.log_prob)


def _sample_then_score(sample, log_prob, z, x, k, first, rng, t):
    """sample_and_score of a tau without a conditioner: sample, then log_prob."""
    psis = with_first(first, sample(z, x, k, rng, t) if k > 0 else None, t)
    return psis, log_prob(psis, z, x, t)


def conditional_tau(params: Callable, family: Callable, param_names: tuple) -> AuxiliaryInference:
    """tau(psi | z, x) = family(*params(z, x, tape)), row by row.

    ``params`` returns per-row parameter nodes of shape (rows, psi_dim);
    ``family`` maps them to a ``dists`` spec that ``dists.sample_reparam``
    can draw from.  Builds log_prob and the fused sample_and_score, which
    runs ``params`` once on the R rows of z and draws k blocks from them.
    """

    def log_prob(psi, z, x, t):
        return dists.log_prob(family(*params(z, x, t)), psi, t)

    def sample_and_score(z, x, k, first, rng, t):
        spec = family(*params(z, x, t))
        psis = dists.sample_reparam(spec, rng, t, n=k, first=first) if k > 0 else first
        return psis, dists.log_prob(spec, psis, t)

    return AuxiliaryInference(log_prob=log_prob, param_names=param_names,
                              sample_and_score=sample_and_score, params=params, family=family)


@dataclass
class ExplicitPrior:
    log_prob: Callable            # (z, tape) -> (rows,)


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
    return Generative(
        log_lik=lambda x, z, t: t.const(np.zeros(n_rows(z, t))),
        prior=ExplicitPrior(log_prob=lambda z, t: t.const(np.zeros(n_rows(z, t)))),
    )


def n_rows(value, t: Tape) -> int:
    """Row count of a node, float array or int code array."""
    return np.shape(t.val(value) if isinstance(value, NodeId) else value)[0]


def cat_rows(parts, t: Tape):
    if any(isinstance(p, NodeId) for p in parts):
        return t.concat([p if isinstance(p, NodeId) else t.const(p) for p in parts], axis=0)
    return np.concatenate(parts, axis=0)


def with_first(first, draws, t: Tape):
    """[first; draws] stacked k-major; a part that is None is left out."""
    if first is None or draws is None:
        return draws if first is None else first
    return cat_rows([first, draws], t)


# ---------------------------------------------------------------------------
# MLP conditionals with sigmoid gates
# ---------------------------------------------------------------------------

@dataclass
class HeadSpec:
    name: str
    dim: int
    transform: str                # identity | positive
    fallback: np.ndarray | float  # prior parameter the gate blends toward

    def __post_init__(self):
        if self.transform not in ("identity", "positive"):
            raise ValueError(f"unknown head transform {self.transform!r}")


POSITIVE_FLOOR = 1e-6
GATE_BIAS_INIT = -5.0


@dataclass
class MlpCond:
    """MLP mapping conditioning inputs to distribution parameters.

    Softplus activations throughout.  The first layer acts on the columns
    [x, inputs], x only when given.  When an ``extra`` conditioning vector is
    passed, every layer (heads included) acts on its input concatenated with
    it.  A sigmoid gate output (weights zero-initialized, bias -5) blends each
    head with a fixed fallback parameter so a freshly initialized conditional
    sits on its fallback prior.

    The leading block of the first layer may hold per-observation rows (B
    rows of x, or ``inputs`` when it is x) under n·B sample rows: it meets
    its rows of the weight on its own B rows, and the product is broadcast
    over the n sample blocks, so x is never tiled.

    ``apply`` records one ``dense`` tape node per layer and for the gate (and
    one more for a lead's B-row product), and one ``gated_head`` node per
    head; ``extra`` joins each layer's input by a ``concat`` node.
    """

    store: ParamStore
    prefix: str
    layer_sizes: tuple
    heads: tuple

    def apply(self, t: Tape, inputs, extra=None, x=None) -> dict:
        def p(name):
            return t.param(self.store, f"{self.prefix}.{name}")

        def lift(v):
            return v if isinstance(v, NodeId) else t.const(v)

        tail = [lift(extra)] if extra is not None else []
        blocks = ([lift(x)] if x is not None else []) + [lift(inputs)]
        for i in range(len(self.layer_sizes) - 1):
            layer = _affine(t, _layer_input(t, blocks + tail), p, f"w{i}", f"b{i}")
            # On a no-grad tape this frees the last layer's output once it is
            # joined with ``extra``, before the next layer's buffers exist.
            del blocks
            blocks = [t.dense(*layer, act="softplus")]
        top = _layer_input(t, blocks + tail)
        del blocks
        gate = t.dense(*_affine(t, top, p, "w_gate", "b_gate"), act="sigmoid")   # (rows, 1)
        out = {"gate": gate}
        for spec in self.heads:
            fb = np.broadcast_to(np.asarray(spec.fallback, dtype=np.float64), (1, spec.dim))
            out[spec.name] = t.gated_head(
                gate, *_affine(t, top, p, f"w_{spec.name}", f"b_{spec.name}"), fallback=fb,
                floor=POSITIVE_FLOOR if spec.transform == "positive" else None)
        return out

    def param_names(self) -> tuple:
        return tuple(self.store.names(self.prefix + "."))


def _layer_input(t: Tape, blocks: list):
    """(lead, rest) of a layer's column blocks.

    ``lead`` is the leading block when it has fewer rows than the others (the
    per-observation x), else None; ``rest`` joins the remaining blocks.
    """
    lead = blocks[0] if n_rows(blocks[0], t) != n_rows(blocks[-1], t) else None
    rest = blocks[1:] if lead is not None else blocks
    return lead, rest[0] if len(rest) == 1 else t.concat(rest, axis=1)


def _affine(t: Tape, layer_input, p, w: str, b: str):
    """(a, weight, shift, rows) of [lead, rest] @ p(w) + p(b) for a fused node.

    Without a lead that is (rest, p(w), p(b), None).  A per-observation lead
    meets its rows of the weight on its own B rows, bias included, in a
    ``dense`` node of its own; the n·B rows of rest meet only their rows of
    the weight, and the lead's (B, width) product is their shift.
    """
    lead, rest = layer_input
    if lead is None:
        return rest, p(w), p(b), None
    dists.sample_blocks(n_rows(rest, t), n_rows(lead, t), "x")
    weight = p(w)
    d, d_all = np.shape(t.val(lead))[1], np.shape(t.val(weight))[0]
    per_x = t.dense(lead, weight, p(b), rows=(0, d))                       # (B, width)
    return rest, weight, per_x, (d, d_all)


def _head_bias_init(spec: HeadSpec) -> np.ndarray:
    # Start each head exactly on its fallback so training begins at the prior
    # and the gate sees an unbiased improvement signal from step one.
    fb = np.broadcast_to(np.asarray(spec.fallback, dtype=np.float64), (spec.dim,))
    if spec.transform == "positive":
        from .special import inv_softplus
        return inv_softplus(np.maximum(fb - POSITIVE_FLOOR, 1e-6))
    return np.array(fb, copy=True)


def init_mlp_cond(store: ParamStore, prefix: str, in_dim: int, hidden: tuple, heads: tuple,
                  rng: RngStream, extra_dim: int = 0) -> MlpCond:
    """MlpCond with fresh parameters; ``extra_dim`` widens every layer's input
    by the width of the ``extra`` vector that ``apply`` will be given."""
    sizes = (in_dim,) + tuple(hidden)
    eff = [s + extra_dim for s in sizes]

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
    store.add(f"{prefix}.w_gate", np.zeros((top, 1)))
    store.add(f"{prefix}.b_gate", np.full(1, GATE_BIAS_INIT))
    return MlpCond(store, prefix, sizes, tuple(heads))


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


def _code_index(major, minor, minor_size: int) -> np.ndarray:
    """Flat table index major * minor_size + minor over int code arrays, the
    shorter array broadcast over the k-major blocks of the longer one."""
    major, minor = (np.asarray(c, dtype=np.int64).reshape(-1) for c in (major, minor))
    rows = min(major.size, minor.size)
    dists.sample_blocks(max(major.size, minor.size), rows, "the shorter code array")
    return (major.reshape(-1, rows) * minor_size + minor.reshape(-1, rows)).reshape(-1)


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

    posterior = info.posterior_table()
    impossible = np.array([info.marginal(j) == 0.0 for j in range(info.z_size)])

    def sample_psi(x, rows, rng, t):
        return rng.categorical(np.broadcast_to(psi_probs, (rows, info.psi_size)))

    def sample_z(psi, x, rng, t):
        return rng.categorical(z_given_psi[np.asarray(psi, dtype=np.int64)])

    def log_psi_prior(psi, x, t):
        return _gather_const(t, log_psi, psi)

    def log_z_given_psi_fn(z, psi, x, t):
        return _gather_const(t, log_cond, _code_index(psi, z, info.z_size))

    def exact_log_marginal(z, x=None):
        z = np.asarray(z, dtype=np.int64)
        with np.errstate(divide="ignore"):
            return np.log(np.array([info.marginal(int(c)) for c in z.reshape(-1)])).reshape(z.shape)

    def sample_psi_posterior(z, x, rng, t):
        codes = np.asarray(z, dtype=np.int64)
        bad = codes[impossible[codes]]
        if bad.size:
            raise ValueError(f"sample_psi_posterior: z = {bad[0]} has zero marginal probability")
        return rng.categorical(posterior[codes])

    return HierarchicalModel(
        sample_psi=sample_psi, sample_z=sample_z,
        log_psi_prior=log_psi_prior, log_z_given_psi=log_z_given_psi_fn,
        exact_log_marginal=exact_log_marginal,
        sample_psi_posterior=sample_psi_posterior,
        finite=info,
    )


DISCRETE_TAU_LOGITS = "tau.logits"


def make_discrete_tau(model: HierarchicalModel, probs=None,
                      store: ParamStore | None = None) -> AuxiliaryInference:
    """Finite tau(psi | z): fixed table or trainable softmax logits.

    ``probs`` is a (z_size, psi_size) table of conditionals.  With a store,
    the table is parameterized by the logits block ``DISCRETE_TAU_LOGITS``
    and trained via the tape.
    """
    info = model.finite
    if info is None:
        raise UnsupportedModelError("discrete tau requires a finite model")
    if probs is not None:
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (info.z_size, info.psi_size):
            raise ValueError("tau table has wrong shape")

    def _log_table(t: Tape):
        if store is not None:
            node = t.param(store, DISCRETE_TAU_LOGITS)
            norm = t.reshape(t.logsumexp(node, axis=1), (info.z_size, 1))
            return t.sub(node, norm)
        return t.const(_safe_log(probs))

    def log_prob(psi, z, x, t):
        flat_codes = _code_index(z, psi, info.psi_size)
        if store is None:
            return _gather_const(t, _safe_log(probs), flat_codes)
        table = _log_table(t)   # (z_size, psi_size) log softmax
        return _gather_log(t, t.reshape(table, (info.z_size * info.psi_size,)), flat_codes)

    def sample(z, x, k, rng, t):
        table = np.exp(t.val(_log_table(Tape(requires_grad=False))))
        return rng.categorical(table[np.tile(np.asarray(z, dtype=np.int64), k)])

    return AuxiliaryInference(log_prob=log_prob, sample=sample,
                              param_names=(DISCRETE_TAU_LOGITS,) if store is not None else ())


def posterior_tau(model: HierarchicalModel) -> AuxiliaryInference:
    """tau := exact posterior q(psi | z); available for finite models only.

    A z of zero marginal has no posterior; its row is q(psi), which no
    estimator reads, since no draw of z from the model lands there.
    """
    info = model.finite
    if info is None:
        raise UnsupportedModelError("posterior tau requires a finite model")
    return make_discrete_tau(model, probs=info.posterior_table())


def prior_tau(model: HierarchicalModel) -> AuxiliaryInference:
    """tau := q(psi | x), the SIVI choice; inherits the model's own sampler."""

    def log_prob(psi, z, x, t):
        return model.log_psi_prior(psi, x, t)

    def sample(z, x, k, rng, t):
        return model.sample_psi(x, k * n_rows(z, t), rng, t)

    return AuxiliaryInference(log_prob=log_prob, sample=sample, prior_of=model)


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

    def sample_psi(x, rows, rng, t):
        return t.const(rng.exponential(0.5, (rows, dim)))

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

    return HierarchicalModel(sample_psi=sample_psi, sample_z=sample_z,
                             log_psi_prior=log_psi_prior, log_z_given_psi=log_z,
                             exact_log_marginal=exact_log_marginal)


def make_gamma_mlp_tau(dim: int, hidden: tuple, store: ParamStore,
                       rng: RngStream) -> AuxiliaryInference:
    """Gamma tau(psi | z) with concentration/rate from a gated MLP.

    The net sees concat(z, |z|): the inverse conditional of a scale mixture is
    even in z, and handing the symmetry to the net directly buys most of the
    fit within a couple thousand steps.  Gate fallbacks are the Exp(1/2)
    prior written as Gamma(1, 1/2), so the untrained tau reproduces the SIVI
    choice.
    """
    heads = (HeadSpec("concentration", dim, "positive", 1.0),
             HeadSpec("rate", dim, "positive", 0.5))
    mlp = init_mlp_cond(store, "tau", 2 * dim, tuple(hidden), heads, rng)

    def params(z, x, t):
        zn = z if isinstance(z, NodeId) else t.const(z)
        feats = t.concat([zn, t.abs(zn)], axis=1)
        out = mlp.apply(t, feats)
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
    store.add("snr.A", (rng.uniform((SNR_DIM, SNR_DIM)) * 2 - 1) * 0.3)
    store.add("snr.b", (rng.uniform((SNR_DIM,)) * 2 - 1) * 0.3)

    def sample_psi(x, rows, rng_, t):
        return t.const(theta + rng_.normal((rows, SNR_DIM)))

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

    model = HierarchicalModel(sample_psi=sample_psi, sample_z=sample_z,
                              log_psi_prior=log_psi_prior, log_z_given_psi=log_z,
                              exact_log_marginal=exact_log_marginal,
                              sample_psi_posterior=sample_psi_posterior)

    std = np.sqrt(SNR_TAU_VAR)

    def tau_mean(z, x, t):
        A = t.param(store, "snr.A")
        b = t.param(store, "snr.b")
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


def make_mini_vae(input_dim: int, z_dim: int, psi_dim: int, hidden: tuple,
                  rng: RngStream) -> MiniVae:
    """Bernoulli-decoder VAE with a hierarchical Gaussian encoder.

    Encoder layers act on their input concatenated with psi (heads included);
    q(psi | x) = N(0, I); tau(psi | z, x) is a Gaussian MLP on concat(x, z).
    """
    if min(input_dim, z_dim, psi_dim) < 1:
        raise ValueError("all dims must be >= 1")
    store = ParamStore()

    dec = init_mlp_cond(store, "dec", z_dim, hidden,
                        (HeadSpec("logits", input_dim, "identity", 0.0),), rng)
    enc = init_mlp_cond(store, "enc", input_dim, hidden,
                        (HeadSpec("mean", z_dim, "identity", 0.0),
                         HeadSpec("stddev", z_dim, "positive", 1.0)),
                        rng, extra_dim=psi_dim)
    tau_net = init_mlp_cond(store, "tau", input_dim + z_dim, hidden,
                            (HeadSpec("mean", psi_dim, "identity", 0.0),
                             HeadSpec("stddev", psi_dim, "positive", 1.0)), rng)

    std_norm = dists.normal(0.0, 1.0)

    def log_lik(x, z, t):
        logits = dec.apply(t, z)["logits"]                     # (n*B, input_dim)
        return dists.log_prob(dists.bernoulli(logits=logits), np.asarray(x, dtype=np.float64), t)

    gen = Generative(log_lik=log_lik,
                     prior=ExplicitPrior(log_prob=lambda z, t: dists.log_prob(std_norm, z, t)))

    def sample_psi(x, rows, rng_, t):
        return t.const(rng_.normal((rows, psi_dim)))

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

    q = HierarchicalModel(sample_psi=sample_psi, sample_z=sample_z,
                          log_psi_prior=log_psi_prior, log_z_given_psi=log_z_given_psi)

    def tau_params(z, x, t):
        out = tau_net.apply(t, z, x=np.asarray(x, dtype=np.float64))
        return out["mean"], out["stddev"]

    tau = conditional_tau(tau_params, dists.normal, tau_net.param_names())
    return MiniVae(gen=gen, q=q, tau=tau, store=store)


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
