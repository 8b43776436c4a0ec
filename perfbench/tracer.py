"""Span tracing of the hvi layers from outside the package.

Each wrapped function records one span: name, start, end, self time, parent
span and unit id.  Functions are wrapped in every ``hvi`` module namespace
that holds them, because ``bounds`` and ``experiments`` import names such as
``sample_joint`` and ``eval_variants`` into their own namespaces; methods are
patched once on their class.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from contextlib import contextmanager

import numpy as np

from hvi import bounds, dists, grads, idx, models, optim, rng, special, tape

# Opcodes whose forward time (and for some, output bytes) is its own metric.
OP_MS = ("matmul", "concat", "tile_rows", "logsumexp", "softplus")
OP_BYTES = ("matmul", "concat", "tile_rows")

# Public estimator entry points of ``bounds``; nested calls (eval_variants ->
# diwhvi_elbo) are separated by self time.
ESTIMATORS = ("upper_bound_U", "upper_bound_U_joint", "lower_bound_L", "diwhvi_elbo",
              "iwhvi_elbo", "sivi_elbo", "sivi_reused", "eval_variants",
              "kl_upper_bound", "kl_lower_bound", "jackknife_U", "expected_kl_tau_prior")

ROOT = "experiments.driver"


class Tracer:
    """In-memory span recorder.  ``unit`` is the id stamped on new spans."""

    def __init__(self):
        self.spans: list = []     # (name, t0, t1, self_s, parent, unit, amount)
        self.stats: list = []     # (unit, ess_frac, cond_evals, degenerate_rows)
        self._stack: list = []    # open: [id, t0, child seconds, name, parent, unit]
        self.unit = 0

    def open(self, name: str) -> None:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, time.perf_counter(), 0.0, name, parent, self.unit])

    def close(self, amount=0) -> None:
        t1 = time.perf_counter()
        sid, t0, child, name, parent, unit = self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][2] += dur
        self.spans[sid] = (name, t0, t1, dur - child, parent, unit, amount)

    def parent_name(self) -> str:
        return self._stack[-1][3] if self._stack else ""

    def write(self, path: str) -> None:
        """Write every span as one CSV line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,self_s,parent,unit,amount\n")
            for i, (name, t0, t1, self_s, parent, unit, amount) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{self_s:.9f},{parent},{unit},{amount}\n")


def _span(tracer: Tracer, name: str, fn, amount=None):
    def wrapped(*args, **kwargs):
        tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close()
            raise
        tracer.close(amount(args, out) if amount is not None else 0)
        return out
    wrapped.__wrapped__ = fn
    return wrapped


def _record(tracer: Tracer, fn):
    names = {}

    def wrapped(self, op, inputs, value=None, aux=None):
        name = names.get(op)
        if name is None:
            name = names[op] = "tape.op." + op
        tracer.open(name)
        try:
            out = fn(self, op, inputs, value, aux)
        except BaseException:
            tracer.close()
            raise
        tracer.close(self.val(out).nbytes)
        return out
    wrapped.__wrapped__ = fn
    return wrapped


def _estimator(tracer: Tracer, fn):
    def wrapped(*args, **kwargs):
        nested = tracer.parent_name() == "bounds.estimator"
        tracer.open("bounds.estimator")
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close()
            raise
        tracer.close()
        est = out[0] if isinstance(out, tuple) else out
        if not nested and isinstance(est, bounds.Estimate):
            n = est.log_weights.shape[0] if est.log_weights.ndim else 1
            tracer.stats.append((tracer.unit, est.ess / n,
                                 int(est.diagnostics.get("cond_evals", 0)),
                                 int(est.diagnostics.get("degenerate_rows", 0))))
        return out
    wrapped.__wrapped__ = fn
    return wrapped


def _size(args, out):
    return int(np.size(out))


def _rows(args, out):
    # MlpCond.apply(self, t, inputs, ...)
    return int(np.shape(args[1].val(args[2]))[0])


def _nodes(args, out):
    return len(out)


def patch_everywhere(home, attr: str, wrapper) -> list:
    """Replace ``home.attr`` in every hvi namespace that holds the same object.

    Returns the (namespace, attr, original) triples needed to undo it.
    """
    orig = getattr(home, attr)
    new = wrapper(orig)
    undo = []
    if isinstance(home, type):
        undo.append((home, attr, orig))
        setattr(home, attr, new)
        return undo
    for name, mod in list(sys.modules.items()):
        if (name == "hvi" or name.startswith("hvi.")) and getattr(mod, attr, None) is orig:
            undo.append((mod, attr, orig))
            setattr(mod, attr, new)
    return undo


@contextmanager
def installed(patches):
    """Apply ``[(home, attr, wrapper)]`` patches for the duration of the block."""
    undo = []
    try:
        for home, attr, wrapper in patches:
            undo += patch_everywhere(home, attr, wrapper)
        yield
    finally:
        for ns, attr, orig in reversed(undo):
            setattr(ns, attr, orig)


def layer_patches(tr: Tracer) -> list:
    """Span wrappers for every traced layer boundary."""
    def span(name, amount=None):
        return lambda fn: _span(tr, name, fn, amount)

    out = [
        (tape.Tape, "record", lambda fn: _record(tr, fn)),
        (tape.Tape, "backward", span("tape.backward", _nodes)),
        (special, "gammainc_p", span("special.gammainc_p", _size)),
        (rng.RngStream, "normal", span("rng.normal", _size)),
        (rng.RngStream, "gamma", span("rng.gamma", _size)),
        (dists, "sample_reparam", span("dists.sample_reparam")),
        (dists, "log_prob", span("dists.log_prob")),
        (dists, "gamma_implicit_grad", span("dists.gamma_implicit_grad")),
        (models.MlpCond, "apply", span("models.mlp_apply", _rows)),
        (models, "sample_joint", span("models.sample_joint")),
        (grads, "grad_autodiff", span("grads.autodiff")),
        (grads, "grad_iwhvi_dreg", span("grads.dreg")),
        (optim.Adam, "step", span("optim.step")),
        (idx, "load_idx", span("idx.load")),
    ]
    out += [(bounds, name, lambda fn: _estimator(tr, fn)) for name in ESTIMATORS]
    return out


def layer_metrics(passes) -> dict:
    """Per-unit layer metrics over the timed units of traced driver calls.

    ``passes`` holds one (tracer, completion times) pair per driver call; a
    call's timed units are 1..n, the intervals between its n + 1
    completions.  ``.ms`` values are self time (span time minus child spans)
    in ms per unit; ``.calls``, ``.rows``, ``.elements``, ``.bytes``,
    ``.nodes`` and ``rng.draws`` are per-unit counts, bytes computed from
    output array sizes.  ``experiments.driver.ms`` is unit time not covered
    by any span.  ``idx.load.ms`` is a set-up layer, in ms per driver call.
    """
    calls: dict = {}
    self_s: dict = {}
    amount: dict = {}
    stats: list = []
    n = 0
    untraced_s = idx_s = 0.0
    rng_draws = rec_calls = rec_s = rec_bytes = 0
    for tr, times in passes:
        n_units = len(times) - 1
        n += max(n_units, 0)
        if n_units > 0:
            untraced_s += times[-1] - times[0]
        spans = tr.spans
        for name, t0, t1, s, parent, unit, amt in spans:
            if name == "idx.load":
                idx_s += s
            if not 1 <= unit <= n_units:
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + s
            amount[name] = amount.get(name, 0) + amt
            parent_name = spans[parent][0] if parent >= 0 else ""
            if parent_name == ROOT:
                untraced_s -= t1 - t0
            if name.startswith("tape.op."):
                rec_calls += 1
                rec_s += s
                rec_bytes += amt
            elif name.startswith("rng.") and not parent_name.startswith("rng."):
                rng_draws += amt
        stats += [s for s in tr.stats if 1 <= s[0] <= n_units]
    n = max(n, 1)

    def ms(name):
        return 1e3 * self_s.get(name, 0.0) / n

    def per(table, name):
        return table.get(name, 0) / n

    m = {
        "special.gammainc_p.calls": per(calls, "special.gammainc_p"),
        "special.gammainc_p.ms": ms("special.gammainc_p"),
        "special.gammainc_p.elements": per(amount, "special.gammainc_p"),
        "dists.gamma_implicit_grad.ms": ms("dists.gamma_implicit_grad"),
        "rng.gamma.ms": ms("rng.gamma"),
        "models.mlp_apply.calls": per(calls, "models.mlp_apply"),
        "models.mlp_apply.ms": ms("models.mlp_apply"),
        "models.mlp_apply.rows": per(amount, "models.mlp_apply"),
    }
    for op in OP_MS:
        m[f"tape.op.{op}.ms"] = ms(f"tape.op.{op}")
        if op in OP_BYTES:
            m[f"tape.op.{op}.bytes"] = per(amount, f"tape.op.{op}")
    ess = [s[1] for s in stats if np.isfinite(s[1])]
    m.update({
        "tape.record.calls": rec_calls / n,
        "tape.record.ms": 1e3 * rec_s / n,
        "tape.record.bytes": rec_bytes / n,
        "tape.backward.ms": ms("tape.backward"),
        "tape.backward.nodes": per(amount, "tape.backward"),
        "grads.autodiff.ms": ms("grads.autodiff"),
        "grads.dreg.ms": ms("grads.dreg"),
        "optim.step.ms": ms("optim.step"),
        "dists.sample_reparam.ms": ms("dists.sample_reparam"),
        "dists.log_prob.ms": ms("dists.log_prob"),
        "rng.normal.ms": ms("rng.normal"),
        "rng.draws": rng_draws / n,
        "models.sample_joint.ms": ms("models.sample_joint"),
        "bounds.estimator.ms": ms("bounds.estimator"),
        "experiments.driver.ms": 1e3 * untraced_s / n,
        "idx.load.ms": 1e3 * idx_s / max(len(passes), 1),
        "bounds.ess_frac": float(np.mean(ess)) if ess else 0.0,
        "bounds.cond_evals": sum(s[2] for s in stats) / n,
        "bounds.degenerate_rows": sum(s[3] for s in stats) / n,
    })
    return m
