"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records an append-only sequence of operation nodes; ``backward``
replays it in reverse, accumulating adjoints by summation over fan-out.
Node ids are topologically ordered by construction: every input id of node i
is < i.  ``backward`` leaves the tape unchanged, so it can run more than once.

Each node carries a ``needs`` bit, set at record time: ``leaf`` sets it,
``const`` and ``stop_gradient`` clear it, and every other opcode takes the OR
of its inputs' bits.  ``backward`` forms adjoints only for nodes with the bit
(each backward function gets its inputs' mask and skips the sides without
it), drops every intermediate adjoint once its node has been processed, and
returns the leaves' adjoints alone (activity analysis; Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008).

Fused opcodes replace chains of one-op nodes: ``normal_log_prob``,
``bernoulli_log_prob`` and ``gamma_log_prob`` (densities, always summed over
the trailing axis to one value per row), ``dense``
(one MLP layer: matmul, shift, softplus or sigmoid) and ``gated_head`` (a
head's affine map, its positive transform and the gate's blend with a
fallback).  Their forwards and backwards repeat the chain's arithmetic, and
its accumulation order at every fan-out, so values and adjoints keep their
bits.  The forwards of ``dense`` (the gate's one column aside),
``gated_head`` and ``bernoulli_log_prob`` hold one full-size work buffer
plus at most one full-size scratch array at a time.

``gamma_sample`` records a Gamma draw it is given, with the pathwise
partials its backward scales by; the tape itself draws nothing.
``located_draws`` records a location family's draws, [first; noise + mean],
in the buffer its caller drew the noise into, so the draws and their stack
after ψ_0 are one array.

Adjoint memory.  Each opcode declares what its backward hands over
(``_HANDS``): arrays it allocated itself, or views of its own parts of the
incoming adjoint.  ``backward`` owns such an array, or the first sum it
forms, and adds a node's later adjoints into it in place; a view is owned
only while the adjoint it views is.  Anything else, such as the g that
``add`` passes to both inputs, is never written, nor is a tape value or an
array a caller passed in.  Without a scale adjoint, the Normal density's
backward works in one full-size buffer, which becomes the value's (or the
mean's, negated in place) adjoint; a mean broadcast over sample blocks gets
the negated block sum, with no second full-size array.

Trainable parameters live outside the tape in a :class:`ParamStore` and are
bound as leaf nodes per pass via :meth:`Tape.param`.

Tapes can also run with ``requires_grad=False``; ops then compute eagerly and
retain nothing, which is what the evaluation sweeps use to keep memory flat.
There the fused nodes keep nothing either: a layer's activation runs in its
product's buffer.  On a grad tape they keep only what their backward needs
beyond inputs and value, such as a softplus layer's pre-activation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import special


class DomainError(ValueError):
    """Raised when an opcode is applied outside its numeric domain."""

    def __init__(self, opcode: str, offending_value):
        self.opcode = opcode
        self.offending_value = offending_value
        super().__init__(f"{opcode}: argument outside domain, offending value {offending_value}")


class OpcodeError(ValueError):
    """Raised for opcodes the tape does not support."""


@dataclass(frozen=True)
class NodeId:
    """Handle to one tape node; valid only for the tape that issued it."""

    index: int
    _value: np.ndarray | None = field(default=None, repr=False, compare=False)


class ParamStore:
    """Named float64 parameter blocks with same-shaped gradient accumulators."""

    def __init__(self):
        self._blocks: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> None:
        if name in self._blocks:
            raise ValueError(f"parameter block {name!r} already exists")
        arr = np.array(value, dtype=np.float64)
        self._blocks[name] = arr
        self.grads[name] = np.zeros_like(arr)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._blocks[name]

    def __setitem__(self, name: str, value) -> None:
        arr = np.asarray(value, dtype=np.float64)
        if name in self._blocks and arr.shape != self._blocks[name].shape:
            raise ValueError(f"shape change for block {name!r}")
        self._blocks[name] = arr
        if name not in self.grads:
            self.grads[name] = np.zeros_like(arr)

    def __contains__(self, name: str) -> bool:
        return name in self._blocks

    def names(self, prefix: str = "") -> list[str]:
        return [n for n in self._blocks if n.startswith(prefix)]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum an adjoint back down to ``shape`` after numpy broadcasting."""
    grad = np.asarray(grad)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# opcode -> forward(values, aux) ; registered below
_FORWARD = {}
# opcode -> backward(grad, values, out_value, aux, need) -> list of input
# adjoints, where need[i] says whether input i wants one; an entry for an
# input without the bit is never read, so expensive sides skip it (None).
_BACKWARD = {}
# Opcodes whose forward is forward(values, aux, grad) -> (value, kept): on a
# grad tape ``kept`` holds what the backward needs beyond the inputs and the
# value (None on a no-grad tape), and the backward gets aux = (aux, kept).
_KEEPS = set()


def _op(name, keeps=False):
    def deco(fns):
        fwd, bwd = fns
        _FORWARD[name] = fwd
        _BACKWARD[name] = bwd
        if keeps:
            _KEEPS.add(name)
        return fns
    return deco


def _check_positive(op, x):
    if np.any(x <= 0.0):
        bad = np.asarray(x)[np.asarray(x) <= 0.0]
        raise DomainError(op, float(bad.flat[0]))


def _normal_lp_fwd(v, aux):
    # log N(x | mu, sd) = -0.5 ((x - mu) / sd)^2 - (log sd + log(2 pi) / 2),
    # step by step in one buffer, then summed over the trailing axis and
    # flattened: (n, R) blocks give n*R values.
    sd, _, x, mu = v
    if not np.all(sd > 0.0):
        if np.any(sd == 0.0):
            raise DomainError("div", 0.0)
        _check_positive("log", sd)
    buf = np.subtract(x, mu, out=np.empty(np.broadcast_shapes(x.shape, mu.shape, sd.shape)))
    np.divide(buf, sd, out=buf)
    np.multiply(buf, buf, out=buf)
    np.multiply(buf, -0.5, out=buf)
    np.subtract(buf, np.log(sd) + special._HALF_LOG_2PI, out=buf)
    return np.sum(buf, axis=-1).reshape(-1)


def _normal_lp_bwd(g, v, out, aux, need):
    # The unfused chain's reverse pass, operation for operation, so adjoints
    # keep its bits: sd gets its log term, then its quotient term.  Without
    # a scale adjoint, z = (x - mu) / sd takes the square's adjoint in its
    # own buffer, which then becomes s's: one full-size array in all.
    sd, _, x, mu = v
    shape = np.broadcast_shapes(x.shape, mu.shape, sd.shape)
    s_shape = np.broadcast_shapes(x.shape, mu.shape)
    g = np.expand_dims(g.reshape(shape[:-1]), -1)
    if not need[0]:
        gz = np.subtract(x, mu, out=np.empty(shape))
        np.divide(gz, sd, out=gz)
        np.multiply(gz, np.multiply(g, -0.5), out=gz)
        np.add(gz, gz, out=gz)                # z*z: one adjoint per factor
        return [None, None] + _normal_lp_loc(np.divide(gz, sd, out=gz), s_shape, x, mu, need)
    s = x - mu
    z = np.divide(s, sd, out=np.empty(shape))
    gz = np.multiply(g, -0.5, out=np.empty(shape))
    np.multiply(gz, z, out=gz)
    np.add(gz, gz, out=gz)
    d_log = _unbroadcast(np.negative(g, out=z), sd.shape) / sd
    np.negative(gz, out=z)
    np.multiply(z, s, out=z)
    d_quot = _unbroadcast(np.divide(z, sd * sd, out=z), sd.shape)
    if not (need[2] or need[3]):
        return [d_log, d_quot, None, None]
    return [d_log, d_quot] + _normal_lp_loc(np.divide(gz, sd, out=gz), s_shape, x, mu, need)


def _normal_lp_loc(gs, s_shape, x, mu, need):
    """Adjoints of x and mu from s = x - mu's, held in the full-size buffer
    ``gs``: x's is gs summed down to x, mu's that of -gs.  A mu of s's shape
    takes gs negated in place when x needs no adjoint; a smaller mu takes
    the negated sum of gs (``_neg_unbroadcast``)."""
    gs = _unbroadcast(gs, s_shape)
    d_x = _unbroadcast(gs, x.shape) if need[2] else None
    d_mu = None
    if need[3]:
        if mu.shape != gs.shape:
            d_mu = _neg_unbroadcast(gs, mu.shape)
        elif need[2] and x.shape == gs.shape:     # d_x is gs itself
            d_mu = np.negative(gs)
        else:
            d_mu = np.negative(gs, out=gs)
    return [d_x, d_mu]


def _neg_unbroadcast(grad, shape):
    """``_unbroadcast(-grad, shape)`` for a ``shape`` it sums down to, with
    no full-size -grad.  Rounding is symmetric in sign, so every nonzero
    finite sum of -grad is the negated sum of grad.  A zero sum's sign is
    not (an exact cancellation gives +0.0 either way), nor is a NaN's, so
    if any entry is zero or not finite, -grad is summed as before."""
    d = -_unbroadcast(grad, shape)
    if np.all(np.isfinite(d)) and np.all(d):
        return d
    return _unbroadcast(-grad, shape)


def _located_draws_fwd(v, aux):
    # [first; noise + mean] in the buffer that holds the noise in its rows
    # after first's: the noise, viewed as its k-major blocks, takes mean in
    # place, so the draws and their stack are one array.
    buf, head, shape = aux
    tail = (buf[head:] if head else buf).reshape(shape)
    np.add(tail, v[0], out=tail)
    if len(v) > 1:
        buf[:head] = v[1]
    return buf


def _located_draws_bwd(g, v, out, aux, need):
    # The reverse of add(mean, noise), its reshape to rows and the concat
    # after first: first gets g's head rows, mean the rest summed down.
    _, head, shape = aux
    d_mean = None
    if need[0]:
        d_mean = _unbroadcast((g[head:] if head else g).reshape(shape), v[0].shape)
    return [d_mean, g[:head]] if len(v) > 1 else [d_mean]


def _blocks(arr, shift):
    """``arr`` viewed as (n, B, width) sample blocks when ``shift`` is a
    (B, width) per-observation block under its n·B rows, else ``arr``."""
    if shift.ndim == 2 and shift.shape[0] != arr.shape[0]:
        return arr.reshape(-1, shift.shape[0], arr.shape[1])
    return arr


def _weight_rows(w, rows):
    return w if rows is None else w[rows[0]:rows[1]]


def _affine_fwd(a, w, shift, rows):
    # a @ w[rows] + shift in the product's own buffer.
    buf = np.matmul(a, _weight_rows(w, rows))
    view = _blocks(buf, shift)
    np.add(view, shift, out=view)
    return buf


def _affine_bwd(gp, a, w, shift, rows, need):
    """Adjoints of (a, w, shift) from the pre-activation's adjoint ``gp``, as
    the unfused add, matmul and slice_rows nodes formed them: a weight used
    in ``rows`` (lo, hi) gets a zero-filled full-size adjoint."""
    d_a = d_w = d_shift = None
    if need[2]:
        d_shift = _unbroadcast(_blocks(gp, shift), shift.shape)
    if need[0]:
        d_a = gp @ _weight_rows(w, rows).T
    if need[1]:
        d_w = a.T @ gp
        if rows is not None:
            full = np.zeros(w.shape)
            full[rows[0]:rows[1]] = d_w
            d_w = full
    return [d_a, d_w, d_shift]


def _dense_fwd(v, aux, grad):
    # act(a @ w[rows] + shift): softplus in the product's buffer, or from the
    # kept pre-activation into a fresh output on a grad tape.
    a, w, shift = v
    rows, act = aux
    pre = _affine_fwd(a, w, shift, rows)
    if act == "softplus":
        return (special.softplus(pre), pre) if grad else (special.softplus(pre, out=pre), None)
    if act == "sigmoid":
        return special.sigmoid(pre), None
    return pre, None


def _dense_bwd(g, v, out, aux, need):
    (rows, act), pre = aux
    if act == "softplus":
        sig = special.sigmoid(pre)
        g = np.multiply(g, sig, out=sig)
    elif act == "sigmoid":
        g = g * out * (1.0 - out)
    return _affine_bwd(g, *v, rows, need)


def _gated_head_fwd(v, aux, grad):
    # val = raw, or softplus(raw) + floor, with raw = a @ w[rows] + shift;
    # out = gate * val + (1 - gate) * fallback.  A grad tape keeps raw and val.
    gate, _, a, w, shift = v
    rows, floor, fb = aux
    raw = _affine_fwd(a, w, shift, rows)
    val = raw
    if floor is not None:
        val = special.softplus(raw) if grad else special.softplus(raw, out=raw)
        np.add(val, floor, out=val)
    out = np.multiply(gate, val, out=np.empty_like(val) if grad else val)
    np.add(out, np.multiply(np.subtract(1.0, gate), fb), out=out)
    return out, ((raw, val) if grad else None)


def _gated_head_bwd(g, v, out, aux, need):
    # The reverse of the unfused chain's (1 - gate) * fallback term, then of
    # its gate * val term, then of val's; the gate, an input twice, gets the
    # two terms' adjoints in that order.
    gate, _, a, w, shift = v
    (rows, floor, fb), (raw, val) = aux
    d_sub = d_gate = None
    if need[0]:
        tmp = np.multiply(g, fb)
        d_sub = np.negative(_unbroadcast(tmp, gate.shape))
        d_gate = _unbroadcast(np.multiply(g, val, out=tmp), gate.shape)
    d_val = g * gate
    if floor is not None:
        d_val = np.multiply(d_val, special.sigmoid(raw), out=d_val)
    return [d_sub, d_gate] + _affine_bwd(d_val, a, w, shift, rows, need[2:])


def _bernoulli_lp_fwd(v, aux):
    # x l - softplus(l): softplus(l) in its own buffer, x l in a work buffer
    # that takes the difference, then summed and flattened as for Normal.
    l, _, x = v
    sp = special.softplus(l)
    buf = np.multiply(x, l)
    np.subtract(buf, sp, out=buf)
    return np.sum(buf, axis=-1).reshape(-1)


def _bernoulli_lp_bwd(g, v, out, aux, need):
    # The unfused chain's reverse pass: logits get softplus's adjoint, then
    # the product's (inputs (l, l, x)).
    l, _, x = v
    shape = np.broadcast_shapes(x.shape, l.shape)
    g = np.broadcast_to(np.expand_dims(g.reshape(shape[:-1]), -1), shape)
    d_sp = d_mul = d_x = None
    if need[0]:
        d_sp = _unbroadcast(np.negative(g), l.shape) * special.sigmoid(l)
        d_mul = _unbroadcast(g * x, l.shape)
    if need[2]:
        d_x = _unbroadcast(g * l, x.shape)
    return [d_sp, d_mul, d_x]


def _gamma_lp_fwd(v, aux, grad):
    # log Gamma(x | a, r) = (a log r + (a - 1) log x) - (lgamma(a) + r x),
    # the chain's operations in a work buffer and one scratch array; a grad
    # tape keeps log x.  Summed and flattened as for Normal.
    a, _, _, r, _, x, _ = v
    _check_positive("log", r)
    log_r = np.log(r)
    _check_positive("log", x)
    buf = np.empty(np.broadcast_shapes(a.shape, r.shape, x.shape))
    log_x = np.log(x) if grad else np.log(x, out=buf)
    _check_positive("lgamma", a)
    np.multiply(a - 1.0, log_x, out=buf)
    np.add(a * log_r, buf, out=buf)
    tmp = np.multiply(r, x, out=np.empty(buf.shape))
    np.add(special.lgamma(a), tmp, out=tmp)
    np.subtract(buf, tmp, out=buf)
    return np.sum(buf, axis=-1).reshape(-1), (log_x if grad else None)


def _gamma_lp_bwd(g, v, out, aux, need):
    # The unfused chain's reverse pass, operation for operation: a gets its
    # lgamma, (a - 1) log x and a log r terms, r its r x and log r terms and
    # x its r x and log x terms, each in the order the chain adds them.
    a, _, _, r, _, x, _ = v
    _, log_x = aux
    shape = np.broadcast_shapes(a.shape, r.shape, x.shape)
    g = np.broadcast_to(np.expand_dims(g.reshape(shape[:-1]), -1), shape).copy()
    neg = -g
    d_lg = d_am1 = d_log_r = d_rx_r = d_div_r = d_rx_x = d_log_x = None
    if need[0] or need[3]:
        g_ar = _unbroadcast(g, np.broadcast_shapes(a.shape, r.shape))
    if need[3] or need[5]:
        g_rx = _unbroadcast(neg, np.broadcast_shapes(r.shape, x.shape))
    if need[0] or need[5]:
        g_ax = _unbroadcast(g, np.broadcast_shapes(a.shape, x.shape))
    if need[0]:
        d_lg = _unbroadcast(neg, a.shape) * special.digamma(a)
        d_am1 = _unbroadcast(g_ax * log_x, a.shape)
        d_log_r = _unbroadcast(g_ar * np.log(r), a.shape)
    if need[3]:
        d_rx_r = _unbroadcast(g_rx * x, r.shape)
        d_div_r = _unbroadcast(g_ar * a, r.shape) / r
    if need[5]:
        d_rx_x = _unbroadcast(g_rx * r, x.shape)
        d_log_x = _unbroadcast(g_ax * (a - 1.0), x.shape) / x
    return [d_lg, d_am1, d_log_r, d_rx_r, d_div_r, d_rx_x, d_log_x]


def _register_ops():
    _op("const")((lambda v, aux: aux, None))
    _op("leaf")((lambda v, aux: aux, None))
    _op("add")((lambda v, aux: v[0] + v[1],
                lambda g, v, out, aux, need: [
                    _unbroadcast(g, v[0].shape) if need[0] else None,
                    _unbroadcast(g, v[1].shape) if need[1] else None]))
    _op("sub")((lambda v, aux: v[0] - v[1],
                lambda g, v, out, aux, need: [
                    _unbroadcast(g, v[0].shape) if need[0] else None,
                    _unbroadcast(-g, v[1].shape) if need[1] else None]))
    _op("mul")((lambda v, aux: v[0] * v[1],
                lambda g, v, out, aux, need: [
                    _unbroadcast(g * v[1], v[0].shape) if need[0] else None,
                    _unbroadcast(g * v[0], v[1].shape) if need[1] else None]))

    def _div_fwd(v, aux):
        if np.any(v[1] == 0.0):
            raise DomainError("div", 0.0)
        return v[0] / v[1]

    _op("div")((_div_fwd,
                lambda g, v, out, aux, need: [
                    _unbroadcast(g / v[1], v[0].shape) if need[0] else None,
                    _unbroadcast(-g * v[0] / (v[1] * v[1]), v[1].shape) if need[1] else None]))
    _op("neg")((lambda v, aux: -v[0], lambda g, v, out, aux, need: [-g]))

    def _log_fwd(v, aux):
        _check_positive("log", v[0])
        return np.log(v[0])

    _op("log")((_log_fwd, lambda g, v, out, aux, need: [g / v[0]]))
    _op("exp")((lambda v, aux: np.exp(v[0]), lambda g, v, out, aux, need: [g * out]))

    def _sqrt_fwd(v, aux):
        _check_positive("sqrt", v[0])
        return np.sqrt(v[0])

    _op("sqrt")((_sqrt_fwd, lambda g, v, out, aux, need: [0.5 * g / out]))
    _op("abs")((lambda v, aux: np.abs(v[0]), lambda g, v, out, aux, need: [g * np.sign(v[0])]))
    _op("softplus")((lambda v, aux: special.softplus(v[0]),
                     lambda g, v, out, aux, need: [g * special.sigmoid(v[0])]))
    _op("sigmoid")((lambda v, aux: special.sigmoid(v[0]),
                    lambda g, v, out, aux, need: [g * out * (1.0 - out)]))

    def _lgamma_fwd(v, aux):
        _check_positive("lgamma", v[0])
        return special.lgamma(v[0])

    _op("lgamma")((_lgamma_fwd, lambda g, v, out, aux, need: [g * special.digamma(v[0])]))

    def _sum_bwd(g, v, out, aux, need):
        axis = aux
        if axis is None:
            return [np.broadcast_to(g, v[0].shape).copy()]
        return [np.broadcast_to(np.expand_dims(g, axis), v[0].shape).copy()]

    _op("sum")((lambda v, aux: np.sum(v[0], axis=aux), _sum_bwd))

    def _lse_bwd(g, v, out, aux, need):
        sm = special.softmax(v[0], aux)
        if aux is None:
            return [g * sm]
        return [np.expand_dims(g, aux) * sm]

    _op("logsumexp")((lambda v, aux: special.logsumexp(v[0], aux), _lse_bwd))
    _op("matvec")((lambda v, aux: v[0] @ v[1],
                   lambda g, v, out, aux, need: [np.outer(g, v[1]) if need[0] else None,
                                                 v[0].T @ g if need[1] else None]))
    _op("matmul")((lambda v, aux: v[0] @ v[1],
                   lambda g, v, out, aux, need: [g @ v[1].T if need[0] else None,
                                                 v[0].T @ g if need[1] else None]))

    def _concat_bwd(g, v, out, aux, need):
        axis = aux
        sizes = [a.shape[axis] for a in v]
        splits = np.cumsum(sizes)[:-1]
        return list(np.split(g, splits, axis=axis))

    _op("concat")((lambda v, aux: np.concatenate(v, axis=aux), _concat_bwd))
    _op("reshape")((lambda v, aux: v[0].reshape(aux),
                    lambda g, v, out, aux, need: [g.reshape(v[0].shape)]))

    def _slice_rows_bwd(g, v, out, aux, need):
        full = np.zeros(v[0].shape)
        full[aux[0]:aux[1]] = g
        return [full]

    _op("slice_rows")((lambda v, aux: v[0][aux[0]:aux[1]], _slice_rows_bwd))
    # Never reached backward: a stop_gradient node has no ``needs`` bit.
    _op("stop_gradient")((lambda v, aux: v[0], None))
    # aux = (sample, d_conc, d_rate): the draw and its pathwise partials.
    _op("gamma_sample")((lambda v, aux: aux[0],
                         lambda g, v, out, aux, need: [
                             _unbroadcast(g * aux[1], v[0].shape) if need[0] else None,
                             _unbroadcast(g * aux[2], v[1].shape) if need[1] else None]))
    # inputs (mean,) or (mean, first), aux (buf, head, shape): buf's rows
    # after the head rows hold the noise, viewed as ``shape``.
    _op("located_draws")((_located_draws_fwd, _located_draws_bwd))
    # inputs (sd, sd, x, mu): sd twice, for its log and its quotient terms.
    _op("normal_log_prob")((_normal_lp_fwd, _normal_lp_bwd))
    # inputs (a, w, shift), aux (rows, act): act(a @ w[rows] + shift), where
    # rows is (lo, hi) or None for all of w.
    _op("dense", keeps=True)((_dense_fwd, _dense_bwd))
    # inputs (gate, gate, a, w, shift), aux (rows, floor, fallback).
    _op("gated_head", keeps=True)((_gated_head_fwd, _gated_head_bwd))
    # inputs (logits, logits, x): logits twice, for softplus and the product.
    _op("bernoulli_log_prob")((_bernoulli_lp_fwd, _bernoulli_lp_bwd))
    # inputs (a, a, a, rate, rate, x, x): one slot per term of the chain
    # that adds into that input.
    _op("gamma_log_prob", keeps=True)((_gamma_lp_fwd, _gamma_lp_bwd))


_register_ops()

# opcode -> what its backward hands over.  "fresh": every adjoint it returns
# is an array it allocated, shared with nothing (not g, a value, its aux or
# another adjoint).  "views": every adjoint is fresh or a view of its own
# part of g, no two overlapping, so it is the pass's to write when g is.
# Adjoints of an opcode not listed (add, sub, dense, gated_head) may alias g
# or one another.
_HANDS = dict.fromkeys(("mul", "div", "neg", "log", "exp", "sqrt", "abs", "softplus", "sigmoid",
                        "lgamma", "sum", "logsumexp", "matvec", "matmul", "slice_rows",
                        "gamma_sample", "normal_log_prob", "bernoulli_log_prob",
                        "gamma_log_prob"), "fresh")
_HANDS.update(dict.fromkeys(("concat", "reshape", "located_draws"), "views"))


def _take_adjoint(grads, owned, i, c, hands, leaf):
    """Give node i adjoint ``c``.  A first adjoint is kept as it is when the
    backward handed it over (``hands``), copied for a leaf, and otherwise
    held unwritten, since it may alias.  A later one is added in place into
    a buffer the pass owns, else into a new sum, which the pass then owns."""
    if i in grads:
        a = grads[i]
        if i in owned and a.shape == np.broadcast_shapes(a.shape, np.shape(c)):
            np.add(a, c, out=a)
        else:
            grads[i] = np.add(a, c, out=np.empty(np.broadcast_shapes(np.shape(a), np.shape(c))))
            owned.add(i)
    elif hands and isinstance(c, np.ndarray):
        grads[i] = c
        owned.add(i)
    elif leaf:
        grads[i] = np.array(c, dtype=np.float64, copy=True)
        owned.add(i)
    else:
        grads[i] = c


class Tape:
    """Append-only record of one forward computation."""

    def __init__(self, requires_grad: bool = True):
        self.requires_grad = requires_grad
        self._ops: list[str] = []
        self._inputs: list[tuple[int, ...]] = []
        self._aux: list = []
        self.values: list[np.ndarray] = []
        # needs[i]: node i depends on a leaf through differentiable ops.
        self._needs: list[bool] = []
        self._param_leaves: list[tuple[int, ParamStore, str]] = []

    # -- plumbing ------------------------------------------------------------

    def __len__(self):
        return len(self._ops)

    def __bool__(self):
        # An empty tape is still a tape; never let truthiness follow length.
        return True

    def val(self, ref) -> np.ndarray:
        """Numeric value of a node handle (or pass-through for raw arrays)."""
        if isinstance(ref, NodeId):
            if ref.index < 0:
                return ref._value
            return self.values[ref.index]
        return np.asarray(ref, dtype=np.float64)

    def _lift(self, x) -> NodeId:
        if isinstance(x, NodeId):
            return x
        return self.const(x)

    def record(self, op: str, inputs: Iterable[NodeId], value=None, aux=None) -> NodeId:
        """Append one node and compute its forward value from the inputs.

        ``value`` is the node's value for the leaf opcodes (``const``/``leaf``),
        and only for them: every other opcode computes its own, so a value
        passed with one is refused rather than silently dropped.
        """
        if op not in _FORWARD:
            raise OpcodeError(f"unknown opcode {op!r}")
        inputs = tuple(inputs)
        if op in ("const", "leaf"):
            if value is None:
                raise ValueError(f"{op} requires an explicit value")
            aux = np.asarray(value, dtype=np.float64)
            out = aux
        elif value is not None:
            raise ValueError(f"{op} computes its value; record takes a value only for const and leaf")
        elif op in _KEEPS:
            out, kept = _FORWARD[op]([self.val(i) for i in inputs], aux, self.requires_grad)
            aux = (aux, kept)
        else:
            out = np.asarray(_FORWARD[op]([self.val(i) for i in inputs], aux), dtype=np.float64)
        if not self.requires_grad:
            return NodeId(-1, out)
        idx = len(self._ops)
        ins = tuple(i.index for i in inputs)
        needs = self._needs
        needs.append(op == "leaf" or (op != "stop_gradient" and any(needs[i] for i in ins)))
        self._ops.append(op)
        self._inputs.append(ins)
        self._aux.append(aux)
        self.values.append(out)
        return NodeId(idx)

    # -- node constructors ----------------------------------------------------

    def const(self, value) -> NodeId:
        return self.record("const", (), value=value)

    def leaf(self, value) -> NodeId:
        return self.record("leaf", (), value=value)

    def param(self, store: ParamStore, name: str) -> NodeId:
        node = self.record("leaf", (), value=store[name])
        if self.requires_grad:
            self._param_leaves.append((node.index, store, name))
        return node

    def add(self, a, b):
        return self.record("add", (self._lift(a), self._lift(b)))

    def sub(self, a, b):
        return self.record("sub", (self._lift(a), self._lift(b)))

    def mul(self, a, b):
        return self.record("mul", (self._lift(a), self._lift(b)))

    def div(self, a, b):
        return self.record("div", (self._lift(a), self._lift(b)))

    def neg(self, a):
        return self.record("neg", (self._lift(a),))

    def log(self, a):
        return self.record("log", (self._lift(a),))

    def exp(self, a):
        return self.record("exp", (self._lift(a),))

    def sqrt(self, a):
        return self.record("sqrt", (self._lift(a),))

    def abs(self, a):
        return self.record("abs", (self._lift(a),))

    def softplus(self, a):
        return self.record("softplus", (self._lift(a),))

    def sigmoid(self, a):
        return self.record("sigmoid", (self._lift(a),))

    def lgamma(self, a):
        return self.record("lgamma", (self._lift(a),))

    def square(self, a):
        a = self._lift(a)
        return self.record("mul", (a, a))

    def sum(self, a, axis=None):
        return self.record("sum", (self._lift(a),), aux=axis)

    def mean(self, a, axis=None):
        a = self._lift(a)
        n = self.val(a).size if axis is None else self.val(a).shape[axis]
        return self.div(self.sum(a, axis=axis), float(n))

    def logsumexp(self, a, axis=None):
        return self.record("logsumexp", (self._lift(a),), aux=axis)

    def logmeanexp(self, a, axis=None):
        a = self._lift(a)
        n = self.val(a).size if axis is None else self.val(a).shape[axis]
        return self.sub(self.logsumexp(a, axis=axis), float(np.log(n)))

    def matvec(self, m, v):
        return self.record("matvec", (self._lift(m), self._lift(v)))

    def matmul(self, a, b):
        return self.record("matmul", (self._lift(a), self._lift(b)))

    def concat(self, parts, axis=0):
        return self.record("concat", tuple(self._lift(p) for p in parts), aux=axis)

    def reshape(self, a, shape):
        return self.record("reshape", (self._lift(a),), aux=tuple(shape))

    def slice_rows(self, a, start: int, stop: int):
        """Rows ``start:stop`` of ``a``; a view, not a copy."""
        return self.record("slice_rows", (self._lift(a),), aux=(int(start), int(stop)))

    def stop_gradient(self, a):
        return self.record("stop_gradient", (self._lift(a),))

    def normal_log_prob(self, value, mean, stddev):
        """log N(value | mean, stddev) summed over the trailing axis and
        flattened to 1-d.  One node."""
        sd = self._lift(stddev)
        return self.record("normal_log_prob", (sd, sd, self._lift(value), self._lift(mean)))

    def dense(self, a, weight, shift, rows=None, act=None):
        """act(a @ weight[lo:hi] + shift), one node; ``rows`` = (lo, hi)
        defaults to all of weight, and act is None, "softplus" or "sigmoid".

        ``shift`` is a bias, or a (B, width) per-observation block that
        broadcasts over the n sample blocks of a's n·B rows.
        """
        if act not in (None, "softplus", "sigmoid"):
            raise ValueError(f"unknown activation {act!r}")
        return self.record("dense", (self._lift(a), self._lift(weight), self._lift(shift)),
                           aux=(rows, act))

    def gated_head(self, gate, a, weight, shift, rows, fallback, floor=None):
        """gate * val + (1 - gate) * fallback, one node, with val the affine
        map ``dense`` forms (no activation), or softplus of it plus ``floor``
        when a floor is given.  ``fallback`` is a constant (1, width) row."""
        gate = self._lift(gate)
        inputs = (gate, gate, self._lift(a), self._lift(weight), self._lift(shift))
        return self.record("gated_head", inputs,
                           aux=(rows, floor, np.asarray(fallback, dtype=np.float64)))

    def bernoulli_log_prob(self, value, logits):
        """log Bernoulli(value | logits) = value * logits - softplus(logits),
        summed over the trailing axis and flattened to 1-d.  One node."""
        l = self._lift(logits)
        return self.record("bernoulli_log_prob", (l, l, self._lift(value)))

    def gamma_log_prob(self, value, concentration, rate):
        """log Gamma(value | concentration, rate) = a log r + (a - 1) log x
        - lgamma(a) - r x, summed over the trailing axis and flattened to
        1-d.  One node."""
        a, r, x = self._lift(concentration), self._lift(rate), self._lift(value)
        return self.record("gamma_log_prob", (a, a, a, r, r, x, x))

    def gamma_sample(self, conc, rate, sample, d_conc, d_rate) -> NodeId:
        """Record ``sample``, a Gamma(conc, rate) draw made by the caller, as
        a node whose adjoints scale by the given pathwise partials d_conc and
        d_rate (implicit reparameterization; None on a no-grad tape)."""
        return self.record("gamma_sample", (self._lift(conc), self._lift(rate)),
                           aux=(sample, d_conc, d_rate))

    def located_draws(self, mean, buf, shape, first=None) -> NodeId:
        """[first; noise + mean], one node: a location family's draws,
        stacked after ``first`` (left out when None) in one array.

        ``buf`` holds the scaled noise, viewed as ``shape`` (k-major sample
        blocks that mean broadcasts over), in its rows after first's; the
        node adds mean to it and writes first there in place, so ``buf``
        becomes the node's value.  Values and adjoints are those of
        ``concat([first, reshape(add(mean, const(noise)))])``.
        """
        inputs = (self._lift(mean),)
        head = 0
        if first is not None:
            inputs += (self._lift(first),)
            head = np.shape(self.val(first))[0]
        return self.record("located_draws", inputs, aux=(buf, head, tuple(shape)))

    # -- reverse pass ----------------------------------------------------------

    def backward(self, output: NodeId) -> dict[NodeId, np.ndarray]:
        """Adjoints of a scalar output w.r.t. the leaves it depends on.

        Only nodes with the ``needs`` bit get an adjoint, and each non-leaf
        adjoint is dropped once its node's backward has run.  Deterministic:
        a second call on the same tape returns an identical map.

        A node's later adjoints are added in place into a buffer the pass
        owns: one a backward handed over (``_HANDS``), or the sum it made
        from the first two.  The pass writes into nothing else, so never
        into a tape value, an incoming adjoint another node still holds or
        an array a caller passed in.
        """
        if not self.requires_grad:
            raise RuntimeError("tape was built with requires_grad=False")
        if not isinstance(output, NodeId) or not (0 <= output.index < len(self._ops)):
            raise ValueError("output does not belong to this tape")
        out_val = self.values[output.index]
        if out_val.size != 1:
            raise ValueError("backward requires a scalar output node")
        needs = self._needs
        leaves: dict[NodeId, np.ndarray] = {}
        if not needs[output.index]:
            return leaves
        grads: dict[int, np.ndarray] = {output.index: np.ones_like(out_val)}
        owned = {output.index}        # nodes whose adjoint is the pass's to write
        for idx in range(output.index, -1, -1):
            g = grads.pop(idx, None)
            if g is None:
                continue
            ins = self._inputs[idx]
            if not ins:
                leaves[NodeId(idx)] = g
                continue
            op = self._ops[idx]
            hands = _HANDS.get(op)
            hands = hands == "fresh" or (hands == "views" and idx in owned)
            need = [needs[i] for i in ins]
            contribs = _BACKWARD[op](g, [self.values[i] for i in ins],
                                     self.values[idx], self._aux[idx], need)
            for i, n, c in zip(ins, need, contribs):
                if n:
                    _take_adjoint(grads, owned, i, c, hands, not self._inputs[i])
            contribs = c = None      # only ``grads`` holds adjoints into the next node
        return leaves

    def param_grads(self, grad_map: dict[NodeId, np.ndarray]) -> dict[str, np.ndarray]:
        """Collect adjoints of bound parameter leaves, keyed by block name."""
        out: dict[str, np.ndarray] = {}
        for idx, store, name in self._param_leaves:
            g = grad_map.get(NodeId(idx))
            if g is None:
                g = np.zeros_like(store[name])
            out[name] = out[name] + g if name in out else np.array(g, copy=True)
        return out
