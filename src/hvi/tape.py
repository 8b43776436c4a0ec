"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records an append-only sequence of operation nodes; ``backward``
replays it in reverse, accumulating adjoints by summation over fan-out.
Node ids are topologically ordered by construction: every input id of node i
is < i.  ``backward`` leaves the tape unchanged, so it can run more than once.

Trainable parameters live outside the tape in a :class:`ParamStore` and are
bound as leaf nodes per pass via :meth:`Tape.param`.

Tapes can also run with ``requires_grad=False``; ops then compute eagerly and
retain nothing, which is what the evaluation sweeps use to keep memory flat.
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


@dataclass(frozen=True, eq=False)
class NodeId:
    """Handle to one tape node; valid only for the tape that issued it."""

    index: int
    _value: np.ndarray | None = field(default=None, repr=False)

    def __eq__(self, other):
        return isinstance(other, NodeId) and other.index == self.index

    def __hash__(self):
        return hash(self.index)


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
# opcode -> backward(grad, values, out_value, aux) -> list of input adjoints
_BACKWARD = {}


def _op(name):
    def deco(fns):
        fwd, bwd = fns
        _FORWARD[name] = fwd
        _BACKWARD[name] = bwd
        return fns
    return deco


def _check_positive(op, x):
    if np.any(x <= 0.0):
        bad = np.asarray(x)[np.asarray(x) <= 0.0]
        raise DomainError(op, float(bad.flat[0]))


def _register_ops():
    _op("const")((lambda v, aux: aux, lambda g, v, out, aux: []))
    _op("leaf")((lambda v, aux: aux, lambda g, v, out, aux: []))
    _op("add")((lambda v, aux: v[0] + v[1],
                lambda g, v, out, aux: [_unbroadcast(g, v[0].shape), _unbroadcast(g, v[1].shape)]))
    _op("sub")((lambda v, aux: v[0] - v[1],
                lambda g, v, out, aux: [_unbroadcast(g, v[0].shape), _unbroadcast(-g, v[1].shape)]))
    _op("mul")((lambda v, aux: v[0] * v[1],
                lambda g, v, out, aux: [_unbroadcast(g * v[1], v[0].shape),
                                        _unbroadcast(g * v[0], v[1].shape)]))

    def _div_fwd(v, aux):
        if np.any(v[1] == 0.0):
            raise DomainError("div", 0.0)
        return v[0] / v[1]

    _op("div")((_div_fwd,
                lambda g, v, out, aux: [_unbroadcast(g / v[1], v[0].shape),
                                        _unbroadcast(-g * v[0] / (v[1] * v[1]), v[1].shape)]))
    _op("neg")((lambda v, aux: -v[0], lambda g, v, out, aux: [-g]))

    def _log_fwd(v, aux):
        _check_positive("log", v[0])
        return np.log(v[0])

    _op("log")((_log_fwd, lambda g, v, out, aux: [g / v[0]]))
    _op("exp")((lambda v, aux: np.exp(v[0]), lambda g, v, out, aux: [g * out]))

    def _sqrt_fwd(v, aux):
        _check_positive("sqrt", v[0])
        return np.sqrt(v[0])

    _op("sqrt")((_sqrt_fwd, lambda g, v, out, aux: [0.5 * g / out]))
    _op("abs")((lambda v, aux: np.abs(v[0]), lambda g, v, out, aux: [g * np.sign(v[0])]))
    _op("softplus")((lambda v, aux: special.softplus(v[0]),
                     lambda g, v, out, aux: [g * special.sigmoid(v[0])]))
    _op("sigmoid")((lambda v, aux: special.sigmoid(v[0]),
                    lambda g, v, out, aux: [g * out * (1.0 - out)]))

    def _lgamma_fwd(v, aux):
        _check_positive("lgamma", v[0])
        return special.lgamma(v[0])

    _op("lgamma")((_lgamma_fwd, lambda g, v, out, aux: [g * special.digamma(v[0])]))

    def _sum_bwd(g, v, out, aux):
        axis = aux
        if axis is None:
            return [np.broadcast_to(g, v[0].shape).copy()]
        return [np.broadcast_to(np.expand_dims(g, axis), v[0].shape).copy()]

    _op("sum")((lambda v, aux: np.sum(v[0], axis=aux), _sum_bwd))

    def _lse_bwd(g, v, out, aux):
        sm = special.softmax(v[0], aux)
        if aux is None:
            return [g * sm]
        return [np.expand_dims(g, aux) * sm]

    _op("logsumexp")((lambda v, aux: special.logsumexp(v[0], aux), _lse_bwd))
    _op("matvec")((lambda v, aux: v[0] @ v[1],
                   lambda g, v, out, aux: [np.outer(g, v[1]), v[0].T @ g]))
    _op("matmul")((lambda v, aux: v[0] @ v[1],
                   lambda g, v, out, aux: [g @ v[1].T, v[0].T @ g]))

    def _concat_bwd(g, v, out, aux):
        axis = aux
        sizes = [a.shape[axis] for a in v]
        splits = np.cumsum(sizes)[:-1]
        return list(np.split(g, splits, axis=axis))

    _op("concat")((lambda v, aux: np.concatenate(v, axis=aux), _concat_bwd))
    _op("reshape")((lambda v, aux: v[0].reshape(aux),
                    lambda g, v, out, aux: [g.reshape(v[0].shape)]))

    def _slice_rows_bwd(g, v, out, aux):
        full = np.zeros(v[0].shape)
        full[aux[0]:aux[1]] = g
        return [full]

    _op("slice_rows")((lambda v, aux: v[0][aux[0]:aux[1]], _slice_rows_bwd))
    _op("stop_gradient")((lambda v, aux: v[0], lambda g, v, out, aux: [None]))
    # aux = (sample, d_conc, d_rate): partials cached at sample time.
    _op("gamma_sample")((lambda v, aux: aux[0],
                         lambda g, v, out, aux: [_unbroadcast(g * aux[1], v[0].shape),
                                                 _unbroadcast(g * aux[2], v[1].shape)]))


_register_ops()


class Tape:
    """Append-only record of one forward computation."""

    def __init__(self, requires_grad: bool = True):
        self.requires_grad = requires_grad
        self._ops: list[str] = []
        self._inputs: list[tuple[int, ...]] = []
        self._aux: list = []
        self.values: list[np.ndarray] = []
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
        """Append one node; computes the forward value unless one is supplied.

        ``value`` is required for the leaf opcodes (``const``/``leaf``) and is
        otherwise recomputed from the inputs (and verified if given).
        """
        if op not in _FORWARD:
            raise OpcodeError(f"unknown opcode {op!r}")
        inputs = tuple(inputs)
        in_vals = [self.val(i) for i in inputs]
        if op in ("const", "leaf"):
            if value is None:
                raise ValueError(f"{op} requires an explicit value")
            aux = np.asarray(value, dtype=np.float64)
            out = aux
        else:
            out = np.asarray(_FORWARD[op](in_vals, aux), dtype=np.float64)
        if not self.requires_grad:
            return NodeId(-1, out)
        idx = len(self._ops)
        self._ops.append(op)
        self._inputs.append(tuple(i.index for i in inputs))
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

    def gamma_sample(self, conc, rate, rng, implicit_grad, shape) -> NodeId:
        """Draw Gamma(conc, rate) with cached implicit-reparameterization partials.

        ``implicit_grad(conc, rate, sample) -> (d/dconc, d/drate)`` supplies the
        pathwise derivatives; sampling itself is forward-only numpy.  ``shape``
        may lead with sample blocks; ``implicit_grad`` gets the parameters as given.
        """
        conc = self._lift(conc)
        rate = self._lift(rate)
        cv, rv = self.val(conc), self.val(rate)
        sample = rng.gamma(cv, rv, shape=shape)
        if self.requires_grad:
            dca, dra = implicit_grad(cv, rv, sample)
        else:
            dca = dra = None
        return self.record("gamma_sample", (conc, rate), aux=(sample, dca, dra))

    # -- reverse pass ----------------------------------------------------------

    def backward(self, output: NodeId) -> dict[NodeId, np.ndarray]:
        """Adjoints of a scalar output w.r.t. every node reachable backward.

        Deterministic: a second call on the same tape returns an identical map.
        """
        if not self.requires_grad:
            raise RuntimeError("tape was built with requires_grad=False")
        if not isinstance(output, NodeId) or not (0 <= output.index < len(self._ops)):
            raise ValueError("output does not belong to this tape")
        out_val = self.values[output.index]
        if out_val.size != 1:
            raise ValueError("backward requires a scalar output node")
        grads: dict[int, np.ndarray] = {output.index: np.ones_like(out_val)}
        for idx in range(output.index, -1, -1):
            g = grads.get(idx)
            if g is None:
                continue
            op = self._ops[idx]
            ins = self._inputs[idx]
            if not ins:
                continue
            in_vals = [self.values[i] for i in ins]
            contribs = _BACKWARD[op](g, in_vals, self.values[idx], self._aux[idx])
            for i, c in zip(ins, contribs):
                if c is None:
                    continue
                if i in grads:
                    grads[i] = grads[i] + c
                else:
                    grads[i] = np.array(c, dtype=np.float64, copy=True)
        return {NodeId(i): g for i, g in grads.items()}

    def param_grads(self, grad_map: dict[NodeId, np.ndarray]) -> dict[str, np.ndarray]:
        """Collect adjoints of bound parameter leaves, keyed by block name."""
        out: dict[str, np.ndarray] = {}
        for idx, store, name in self._param_leaves:
            g = grad_map.get(NodeId(idx))
            if g is None:
                g = np.zeros_like(store[name])
            out[name] = out[name] + g if name in out else np.array(g, copy=True)
        return out
